//go:build race

package main

// raceEnabled reports whether the race detector is compiled in. Index builds
// run ten times slower under it, so the smoke test keeps to the two 400 kb
// workloads there.
const raceEnabled = true
