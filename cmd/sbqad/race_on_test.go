//go:build race

package main

// raceEnabled reports a -race build, where sync.Pool drops a share of what is
// put back on purpose, so pooled edge buffers are allocated again at random.
const raceEnabled = true
