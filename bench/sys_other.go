//go:build !linux

package main

// processCPUSeconds is unavailable off Linux; CPU metrics read 0 there.
func processCPUSeconds() float64 { return 0 }

func fsType(string) string { return "unknown" }
