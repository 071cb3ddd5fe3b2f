package mdes

import (
	"math/bits"
	"sort"

	"mdes/internal/lang"
)

// sensorLayout is a model's per-sensor layout, built once and shared by every
// stream and row of the model: sensor i is the i-th modelled sensor in sorted
// order, and its events rank by lang.Rank over its alphabet.
type sensorLayout struct {
	names []string
	index map[string]int
	langs []*lang.Language
	// unknown[i] is the event a snapshot writes for an unknown char of
	// sensor i: one outside its alphabet, so it ranks back to UnknownChar.
	unknown []string
}

// layout returns the model's sensor layout, building it on first use.
func (m *Model) layout() *sensorLayout {
	m.layoutOnce.Do(func() {
		lay := &sensorLayout{index: make(map[string]int, len(m.languages))}
		for name := range m.languages {
			lay.names = append(lay.names, name)
		}
		sort.Strings(lay.names)
		for i, name := range lay.names {
			l := m.languages[name]
			lay.index[name] = i
			lay.langs = append(lay.langs, l)
			unk := string(lang.UnknownChar)
			for lang.Rank(l.Alphabet, unk) != lang.UnknownChar {
				unk += string(lang.UnknownChar)
			}
			lay.unknown = append(lay.unknown, unk)
		}
		m.lay = lay
	})
	return m.lay
}

// event returns an event that ranks to char c of sensor i.
func (lay *sensorLayout) event(i int, c byte) string {
	if c == lang.UnknownChar {
		return lay.unknown[i]
	}
	return lay.langs[i].Alphabet[c-'a']
}

// Row is one tick laid out by sensor. Set ranks each event into its
// sensor's slot as it arrives, so Stream.PushRow has nothing left to look up
// and a decoder can fill a row straight from its input buffer. A Row belongs
// to the model that made it and may be pushed into any stream of that
// model; Reset empties it for the next tick.
type Row struct {
	lay   *sensorLayout
	chars []byte   // encrypted char per sensor
	set   []uint64 // presence bitmask: bit i is sensor i
	next  int      // the sensor after the last one Set: sorted keys skip the index map
}

// NewRow returns an empty row for ticks of this model's streams.
func (m *Model) NewRow() *Row {
	lay := m.layout()
	return &Row{lay: lay, chars: make([]byte, len(lay.names)), set: make([]uint64, (len(lay.names)+63)/64)}
}

// Set records one reading. A sensor the model does not know is ignored and a
// sensor set twice keeps its last event, as a tick map would. Neither slice
// is retained.
func (r *Row) Set(sensor, event []byte) {
	i := r.next
	if i >= len(r.lay.names) || r.lay.names[i] != string(sensor) {
		var ok bool
		if i, ok = r.lay.index[string(sensor)]; !ok {
			return
		}
	}
	r.setRank(i, lang.Rank(r.lay.langs[i].Alphabet, event))
	r.next = i + 1
}

func (r *Row) setRank(i int, c byte) {
	r.chars[i] = c
	r.set[i>>6] |= 1 << (i & 63)
}

// Reset empties the row.
func (r *Row) Reset() {
	clear(r.set)
	r.next = 0
}

// missing returns the first sensor in sorted order the row lacks, or -1.
func (r *Row) missing() int {
	for w, got := range r.set {
		want := ^uint64(0)
		if n := len(r.chars) - w*64; n < 64 {
			want = 1<<n - 1
		}
		if lack := want &^ got; lack != 0 {
			return w*64 + bits.TrailingZeros64(lack)
		}
	}
	return -1
}
