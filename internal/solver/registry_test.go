package solver

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
)

func testFactory(name string) Factory {
	return func(Options) Solver { return baselineSolver{name} }
}

// Duplicate registration is a typed error, not a silent overwrite: the
// first registration stays in force and the caller can detect the
// collision with errors.Is.
func TestRegisterDuplicateTypedError(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register("x", testFactory(Hybrid)); err != nil {
		t.Fatal(err)
	}
	err := reg.Register("x", testFactory(PushAll))
	if !errors.Is(err, ErrDuplicateSolver) {
		t.Fatalf("second Register = %v, want ErrDuplicateSolver", err)
	}
	// The original entry survived.
	sv, err := reg.New("x", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sv.Name() != Hybrid {
		t.Fatalf("duplicate Register overwrote the factory: built %q", sv.Name())
	}
}

// Clone is independent in both directions.
func TestRegistryCloneIndependent(t *testing.T) {
	orig := NewRegistry()
	orig.MustRegister("a", testFactory(Hybrid))
	clone := orig.Clone()

	clone.MustRegister("b", testFactory(PushAll))
	if _, err := orig.Get("b"); !errors.Is(err, ErrUnknownSolver) {
		t.Fatalf("registration on the clone leaked into the original: %v", err)
	}
	orig.MustRegister("c", testFactory(PullAll))
	if _, err := clone.Get("c"); !errors.Is(err, ErrUnknownSolver) {
		t.Fatalf("registration on the original leaked into the clone: %v", err)
	}

	// The shared prefix is intact.
	if sv, err := clone.New("a", Options{}); err != nil || sv.Name() != Hybrid {
		t.Fatalf("clone lost the shared entry: %v, %v", sv, err)
	}
	if orig.Len() != 2 || clone.Len() != 2 {
		t.Fatalf("Len: orig %d, clone %d; want 2 and 2", orig.Len(), clone.Len())
	}
}

func TestRegistryNamesSorted(t *testing.T) {
	reg := NewRegistry()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		reg.MustRegister(n, testFactory(Hybrid))
	}
	names := reg.Names()
	if !sort.StringsAreSorted(names) {
		t.Fatalf("Names() not sorted: %v", names)
	}
	if len(names) != 3 {
		t.Fatalf("Names() = %v, want 3 entries", names)
	}
}

// Concurrent registration, lookup, and enumeration must be race-free —
// run under -race this is the regression test for the registry's
// locking discipline.
func TestRegistryConcurrentAccess(t *testing.T) {
	reg := NewRegistry()
	const writers = 8
	const perWriter = 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				name := fmt.Sprintf("s-%d-%d", w, i)
				if err := reg.Register(name, testFactory(Hybrid)); err != nil {
					t.Errorf("Register(%q): %v", name, err)
				}
				// Everyone re-registering the shared name races on the
				// duplicate path; exactly one wins overall.
				_ = reg.Register("shared", testFactory(Hybrid))
			}
		}(w)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				_ = reg.Names()
				_, _ = reg.Get(fmt.Sprintf("s-%d-%d", w, i))
				_, _ = reg.New("shared", Options{})
				_ = reg.Clone().Len()
			}
		}(w)
	}
	wg.Wait()
	if got, want := reg.Len(), writers*perWriter+1; got != want {
		t.Fatalf("Len() = %d, want %d", got, want)
	}
}
