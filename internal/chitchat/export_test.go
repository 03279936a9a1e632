package chitchat

import "piggyback/internal/graph"

// SetSeedObserver installs the seed-phase hook for tests outside the
// package (those that need internal/solver, which imports this one).
func SetSeedObserver(fn func(w graph.NodeID)) { seedObserver = fn }
