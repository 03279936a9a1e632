package solver

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"
)

// Factory builds a configured Solver instance from generic options.
type Factory func(Options) Solver

// ErrUnknownSolver is wrapped by Get for names nobody registered.
var ErrUnknownSolver = errors.New("solver: unknown solver")

// ErrDuplicateSolver is wrapped by Register when the name is taken —
// a typed error instead of a silent overwrite, so library consumers
// composing registries can detect collisions programmatically.
// MustRegister (the init-time path) panics on it instead.
var ErrDuplicateSolver = errors.New("solver: duplicate registration")

// Registry maps solver names to factories. It is a first-class value:
// consumers hold one (usually Default), tests build private ones, and
// Clone derives scratch copies. What an entry can do is asked of the
// instance it builds (RegionCapable), not declared beside it. All
// methods are safe for concurrent use.
//
// The zero value is NOT ready; use NewRegistry (or Clone).
type Registry struct {
	mu      sync.RWMutex
	entries map[string]Factory
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]Factory{}}
}

// Default is the process-global registry the built-in solvers register
// into at init time. Program-level consumers (the piggyback facade, the
// cmd tools) resolve names against it; library code takes a *Registry
// so callers can substitute their own.
var Default = NewRegistry()

// Register makes a solver available under name. It returns an error
// wrapping ErrDuplicateSolver when the name is taken, and a plain error
// on an empty name or nil factory.
func (r *Registry) Register(name string, f Factory) error {
	if name == "" || f == nil {
		return errors.New("solver: Register with empty name or nil factory")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.entries[name]; dup {
		return fmt.Errorf("%w of %q", ErrDuplicateSolver, name)
	}
	r.entries[name] = f
	return nil
}

// MustRegister is Register that panics on error — the init-time path,
// where registry misuse is a programmer error caught at startup.
func (r *Registry) MustRegister(name string, f Factory) {
	if err := r.Register(name, f); err != nil {
		panic(err)
	}
}

// Get returns the factory registered under name, or an error wrapping
// ErrUnknownSolver that lists the known names.
func (r *Registry) Get(name string) (Factory, error) {
	r.mu.RLock()
	f, ok := r.entries[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w %q (have %v)", ErrUnknownSolver, name, r.Names())
	}
	return f, nil
}

// New is the one-step convenience: look name up and build the solver.
func (r *Registry) New(name string, opts Options) (Solver, error) {
	f, err := r.Get(name)
	if err != nil {
		return nil, err
	}
	return f(opts), nil
}

// Names returns every registered solver name, sorted — deterministic
// regardless of registration order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.entries))
	for n := range r.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Len returns the number of registered solvers.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}

// Clone returns an independent copy: registrations on the clone never
// touch the original, so a program can derive a scratch registry from
// Default, add experimental solvers, and hand it to one consumer.
func (r *Registry) Clone() *Registry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return &Registry{entries: maps.Clone(r.entries)}
}
