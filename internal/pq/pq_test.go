package pq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPushPopOrdered(t *testing.T) {
	q := New(10)
	prios := []float64{5, 3, 8, 1, 9, 2, 7, 0, 6, 4}
	for id, p := range prios {
		q.Push(id, p)
	}
	for want := 0.0; want < 10; want++ {
		id, p := q.PopMin()
		if p != want {
			t.Fatalf("PopMin priority = %v, want %v", p, want)
		}
		if prios[id] != p {
			t.Fatalf("PopMin id %d has priority %v, want %v", id, prios[id], p)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len after drain = %d", q.Len())
	}
}

func TestUpdateDecrease(t *testing.T) {
	q := New(3)
	q.Push(0, 10)
	q.Push(1, 20)
	q.Push(2, 30)
	q.Update(2, 5)
	if id, p := q.Min(); id != 2 || p != 5 {
		t.Fatalf("Min = (%d,%v), want (2,5)", id, p)
	}
}

func TestUpdateIncrease(t *testing.T) {
	q := New(3)
	q.Push(0, 1)
	q.Push(1, 2)
	q.Push(2, 3)
	q.Update(0, 100)
	if id, _ := q.Min(); id != 1 {
		t.Fatalf("Min id = %d, want 1", id)
	}
}

func TestUpdateInsertsWhenAbsent(t *testing.T) {
	q := New(2)
	q.Update(1, 7)
	if !q.Contains(1) || q.Len() != 1 {
		t.Fatal("Update did not insert absent id")
	}
}

func TestRemove(t *testing.T) {
	q := New(5)
	for i := 0; i < 5; i++ {
		q.Push(i, float64(i))
	}
	q.Remove(0)
	q.Remove(3)
	q.Remove(3) // idempotent
	var got []int
	for q.Len() > 0 {
		id, _ := q.PopMin()
		got = append(got, id)
	}
	want := []int{1, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("after Remove got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after Remove got %v, want %v", got, want)
		}
	}
}

func TestTieBreakDeterministic(t *testing.T) {
	q := New(4)
	for i := 3; i >= 0; i-- {
		q.Push(i, 1.0)
	}
	for want := 0; want < 4; want++ {
		id, _ := q.PopMin()
		if id != want {
			t.Fatalf("equal priorities should pop in id order: got %d, want %d", id, want)
		}
	}
}

// Property: drain order matches sorting, under random priorities and a
// random subset of updates.
func TestQuickHeapOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		q := New(n)
		final := make(map[int]float64)
		for i := 0; i < n; i++ {
			p := rng.Float64() * 100
			q.Push(i, p)
			final[i] = p
		}
		for k := 0; k < n/2; k++ {
			id := rng.Intn(n)
			p := rng.Float64() * 100
			q.Update(id, p)
			final[id] = p
		}
		var want []float64
		for _, p := range final {
			want = append(want, p)
		}
		sort.Float64s(want)
		for i := 0; q.Len() > 0; i++ {
			id, p := q.PopMin()
			if p != want[i] || final[id] != p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
