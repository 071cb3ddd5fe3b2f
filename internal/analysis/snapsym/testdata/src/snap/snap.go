// Package snap is the flagging snapsym fixture: structs that flow through
// the checkpoint framing with fields that do not survive the round trip.
package snap

import (
	"encoding/json"

	"checkpoint"
)

// record reaches the durability boundary through save/load below.
type record struct {
	Tenant string `json:"tenant"`
	Ticks  int    `json:"ticks"`
	cursor int    // want `unexported field record\.cursor in snapshot type record: encoding/json drops it silently`
	Debug  string `json:"-"`      // want `field record\.Debug in snapshot type record is tagged json:"-" and vanishes`
	Alias  string `json:"tenant"` // want `duplicate json name "tenant" in snapshot type record`
	Extra  int    `json:"extra"`  // want `field record\.Extra is encoded into the snapshot but never read after decode`
	Nested inner  `json:"nested"`
}

// inner is reached through record.Nested.
type inner struct {
	Count int `json:"count"`
	state int // want `unexported field record\.Nested\.state in snapshot type record\.Nested`
}

func save(dst []byte, r record) []byte {
	payload, _ := json.Marshal(r)
	return checkpoint.AppendFrame(dst, payload)
}

func load(data []byte) (record, error) {
	payloads, _, err := checkpoint.Frames(data)
	var r record
	if err == nil && len(payloads) > 0 {
		err = json.Unmarshal(payloads[0], &r)
	}
	return r, err
}

// consume reads every field except Extra, making Extra the asymmetric one.
func consume(r record) (string, int, int) {
	return r.Tenant, r.Ticks, r.Nested.Count
}

func debugDump(r record) string { return r.Debug + r.Alias }

// legacy is decoded from one frame read with NextFrame: a decode flow too.
type legacy struct {
	Tenant string `json:"tenant"`
	hidden int    // want `unexported field legacy\.hidden in snapshot type legacy: encoding/json drops it silently`
}

func loadLegacy(data []byte) (legacy, error) {
	payload, _, _ := checkpoint.NextFrame(data)
	var l legacy
	err := json.Unmarshal(payload, &l)
	return l, err
}
