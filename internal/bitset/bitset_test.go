package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	s := New(0)
	if len(s.AppendSet(nil)) != 0 {
		t.Fatalf("empty set: count=%d", len(s.AppendSet(nil)))
	}
	s.SetAll() // no-op on the empty set, must not touch missing words
	if len(s.AppendSet(nil)) != 0 {
		t.Fatalf("SetAll on empty set: count=%d", len(s.AppendSet(nil)))
	}
}

func TestSetAll(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 128, 1000} {
		s := New(n)
		s.Set(0) // pre-existing bits must not confuse the fill
		s.SetAll()
		if len(s.AppendSet(nil)) != n {
			t.Fatalf("n=%d: SetAll count=%d", n, len(s.AppendSet(nil)))
		}
		for i := 0; i < n; i++ {
			if !s.Test(i) {
				t.Fatalf("n=%d: bit %d clear after SetAll", n, i)
			}
		}
		s.Clear(n - 1)
		if len(s.AppendSet(nil)) != n-1 {
			t.Fatalf("n=%d: count=%d after one Clear", n, len(s.AppendSet(nil)))
		}
	}
}

func TestSetTestClear(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Test(i) {
			t.Fatalf("bit %d set before Set", i)
		}
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d clear after Set", i)
		}
	}
	if got := len(s.AppendSet(nil)); got != 8 {
		t.Fatalf("%d bits set, want 8", got)
	}
	s.Clear(64)
	if s.Test(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	if got := len(s.AppendSet(nil)); got != 7 {
		t.Fatalf("%d bits set, want 7", got)
	}
}

func TestReset(t *testing.T) {
	s := New(200)
	for i := 0; i < 200; i += 3 {
		s.Set(i)
	}
	s.Reset()
	if len(s.AppendSet(nil)) != 0 {
		t.Fatalf("%d bits set after Reset", len(s.AppendSet(nil)))
	}
}

func TestNextSet(t *testing.T) {
	s := New(300)
	want := []int{2, 63, 64, 150, 299}
	for _, i := range want {
		s.Set(i)
	}
	var got []int
	for i, ok := s.NextSet(0); ok; i, ok = s.NextSet(i + 1) {
		got = append(got, i)
	}
	if len(got) != len(want) {
		t.Fatalf("NextSet walk visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NextSet walk: got %v, want %v", got, want)
		}
	}
	// Same-index restart returns the bit itself; past-the-end is clean.
	if i, ok := s.NextSet(63); !ok || i != 63 {
		t.Fatalf("NextSet(63) = %d,%v, want 63,true", i, ok)
	}
	if i, ok := s.NextSet(-5); !ok || i != 2 {
		t.Fatalf("NextSet(-5) = %d,%v, want 2,true", i, ok)
	}
	if _, ok := s.NextSet(300); ok {
		t.Fatal("NextSet past capacity reported a bit")
	}
	if _, ok := New(0).NextSet(0); ok {
		t.Fatal("NextSet on empty set reported a bit")
	}
}

func TestAppendSet(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 64, 129} {
		s.Set(i)
	}
	got := s.AppendSet([]int32{-1})
	want := []int32{-1, 0, 64, 129}
	if len(got) != len(want) {
		t.Fatalf("AppendSet = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendSet = %v, want %v", got, want)
		}
	}
}

// Property: a Set agrees with a map[int]bool reference under a random
// operation sequence.
func TestQuickAgainstMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(500)
		s := New(n)
		ref := make(map[int]bool)
		for op := 0; op < 300; op++ {
			i := rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				s.Set(i)
				ref[i] = true
			case 1:
				s.Clear(i)
				delete(ref, i)
			case 2:
				if s.Test(i) != ref[i] {
					return false
				}
			}
		}
		if len(s.AppendSet(nil)) != len(ref) {
			return false
		}
		for i := range ref {
			if !s.Test(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRankIsPositionInAppendSet(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 64, 65, 200, 1000} {
		s := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				s.Set(i)
			}
		}
		ranks := s.Ranks()
		for pos, i := range s.AppendSet(nil) {
			if got := s.Rank(ranks, int(i)); got != pos {
				t.Fatalf("n=%d: Rank(%d) = %d, want %d", n, i, got, pos)
			}
		}
	}
}

// Bit is Test as 0 or 1, and AndNot leaves Test(i) && !t.Test(i) at
// every i, across word boundaries and with a longer t.
func TestBitAndNotAgainstTest(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 63, 64, 65, 200, 1000} {
		for _, tn := range []int{n, n + 70} {
			s, u := New(n), New(tn)
			for i := 0; i < tn; i++ {
				if i < n && rng.Intn(2) == 0 {
					s.Set(i)
				}
				if rng.Intn(3) == 0 {
					u.Set(i)
				}
			}
			want := make([]bool, n)
			for i := range want {
				if bit := s.Bit(i); bit > 1 || (bit == 1) != s.Test(i) {
					t.Fatalf("n=%d: Bit(%d) = %d, Test %v", n, i, bit, s.Test(i))
				}
				want[i] = s.Test(i) && !u.Test(i)
			}
			s.AndNot(u)
			for i, w := range want {
				if s.Test(i) != w {
					t.Fatalf("n=%d, len(t)=%d: bit %d is %v after AndNot, want %v", n, tn, i, s.Test(i), w)
				}
			}
		}
	}
}
