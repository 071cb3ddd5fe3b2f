// Package faultfs stands in for mdes/internal/faultfs: the filesystem
// interface every session record is read and written through.
package faultfs

// FS is the store's filesystem surface.
type FS interface {
	ReadFile(name string) ([]byte, error)
	Remove(name string) error
}
