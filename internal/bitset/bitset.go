// Package bitset provides a dense fixed-size bit set used to track
// per-edge membership (push/pull/covered sets) without hashing.
package bitset

import "math/bits"

// Set is a fixed-capacity bit set. The zero value is an empty set of
// capacity zero; use New to allocate capacity.
type Set struct {
	words []uint64
	n     int
}

// New returns a set able to hold bits 0..n-1, all initially clear.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative size")
	}
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Set sets bit i.
func (s *Set) Set(i int) {
	s.words[i>>6] |= 1 << (uint(i) & 63)
}

// Clear clears bit i.
func (s *Set) Clear(i int) {
	s.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Test reports whether bit i is set.
func (s *Set) Test(i int) bool {
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Bit returns bit i as 0 or 1, for a caller that adds it instead of
// branching on it.
func (s *Set) Bit(i int) uint64 {
	return s.words[i>>6] >> (uint(i) & 63) & 1
}

// AndNot clears in s every bit set in t, a word at a time. t must be at
// least as long as s.
func (s *Set) AndNot(t *Set) {
	tw := t.words[:len(s.words)]
	for i := range s.words {
		s.words[i] &^= tw[i]
	}
}

// SetAll sets every bit 0..n-1 of an n-bit set, leaving the spare bits of
// the last word clear so NextSet and Ranks never see a bit past n-1.
func (s *Set) SetAll() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	if rem := uint(s.n) & 63; rem != 0 {
		s.words[len(s.words)-1] = (1 << rem) - 1
	}
}

// Reset clears all bits.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// NextSet returns the index of the first set bit at or after i, scanning
// whole words at a time. The second return is false when no set bit
// remains.
func (s *Set) NextSet(i int) (int, bool) {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return 0, false
	}
	wi := i >> 6
	w := s.words[wi] &^ ((1 << (uint(i) & 63)) - 1)
	for {
		if w != 0 {
			return wi<<6 + bits.TrailingZeros64(w), true
		}
		wi++
		if wi >= len(s.words) {
			return 0, false
		}
		w = s.words[wi]
	}
}

// AppendSet appends the indices of all set bits to dst in increasing
// order and returns the extended slice — a NextSet walk in one call.
func (s *Set) AppendSet(dst []int32) []int32 {
	for i, ok := s.NextSet(0); ok; i, ok = s.NextSet(i + 1) {
		dst = append(dst, int32(i))
	}
	return dst
}

// Ranks returns, for each 64-bit word of the set, the number of set bits
// in the words before it — the index that makes Rank O(1). It describes
// the set as it is now and is stale once a bit changes.
func (s *Set) Ranks() []int32 {
	ranks := make([]int32, len(s.words))
	c := int32(0)
	for i, w := range s.words {
		ranks[i] = c
		c += int32(bits.OnesCount64(w))
	}
	return ranks
}

// Rank returns the number of set bits below i, given ranks = s.Ranks():
// for a set bit, its position in the increasing order AppendSet emits.
func (s *Set) Rank(ranks []int32, i int) int {
	below := s.words[i>>6] & (1<<(uint(i)&63) - 1)
	return int(ranks[i>>6]) + bits.OnesCount64(below)
}
