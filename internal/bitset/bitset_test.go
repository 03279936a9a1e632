package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmpty(t *testing.T) {
	s := New(0)
	if s.Count() != 0 || s.Len() != 0 {
		t.Fatalf("empty set: count=%d len=%d", s.Count(), s.Len())
	}
	s.SetAll() // no-op on the empty set, must not touch missing words
	if s.Count() != 0 {
		t.Fatalf("SetAll on empty set: count=%d", s.Count())
	}
}

func TestSetAll(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 128, 1000} {
		s := New(n)
		s.Set(0) // pre-existing bits must not confuse the fill
		s.SetAll()
		if s.Count() != n {
			t.Fatalf("n=%d: SetAll count=%d", n, s.Count())
		}
		for i := 0; i < n; i++ {
			if !s.Test(i) {
				t.Fatalf("n=%d: bit %d clear after SetAll", n, i)
			}
		}
		s.Clear(n - 1)
		if s.Count() != n-1 {
			t.Fatalf("n=%d: count=%d after one Clear", n, s.Count())
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
	if got := s.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	s.Clear(64)
	if s.Test(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	if got := s.Count(); got != 7 {
		t.Fatalf("Count = %d, want 7", got)
	}
}

func TestReset(t *testing.T) {
	s := New(200)
	for i := 0; i < 200; i += 3 {
		s.Set(i)
	}
	s.Reset()
	if s.Count() != 0 {
		t.Fatalf("Count after Reset = %d", s.Count())
	}
}

func TestCloneIndependent(t *testing.T) {
	s := New(70)
	s.Set(5)
	c := s.Clone()
	c.Set(6)
	if s.Test(6) {
		t.Fatal("Clone shares storage with original")
	}
	if !c.Test(5) {
		t.Fatal("Clone lost bit 5")
	}
}

func TestRangeOrder(t *testing.T) {
	s := New(300)
	want := []int{2, 63, 64, 150, 299}
	for _, i := range want {
		s.Set(i)
	}
	var got []int
	s.Range(func(i int) bool {
		got = append(got, i)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d bits, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range order: got %v, want %v", got, want)
		}
	}
}

func TestRangeEarlyStop(t *testing.T) {
	s := New(100)
	for i := 0; i < 100; i++ {
		s.Set(i)
	}
	n := 0
	s.Range(func(int) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("Range visited %d bits after early stop, want 10", n)
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
		if s.Count() != len(ref) {
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
