//go:build race

package infer

// raceEnabled reports whether the tests were built with -race, under which
// sync.Pool drops a share of what is put back: the allocation pins skip,
// since a dropped workspace is rebuilt from scratch.
const raceEnabled = true
