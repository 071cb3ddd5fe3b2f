// Package checkpoint is a miniature stand-in for the repo's
// internal/checkpoint so the snapshot-flow rules have a matching import path
// suffix to bind to.
package checkpoint

func AppendFrame(dst, payload []byte) []byte {
	dst = append(dst, byte(len(payload)))
	return append(dst, payload...)
}

func NextFrame(data []byte) ([]byte, int, bool) {
	return data, len(data), true
}

func Frames(data []byte) ([][]byte, int, error) {
	return nil, len(data), nil
}
