package nnls

// SolvesPerCause lets the external tests (oracle_test.go) state the bound a
// solve must stay under.
const SolvesPerCause = solvesPerCause
