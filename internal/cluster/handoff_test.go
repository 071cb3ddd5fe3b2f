package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestHandoffRoundTrip(t *testing.T) {
	h := Handoff{
		Tenant:  "plant-7",
		Model:   "default",
		Ticks:   123,
		From:    "http://replica-0:9090",
		Payload: json.RawMessage(`{"stream":{"ticks":123}}`),
	}
	data, err := EncodeHandoff(h)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeHandoff(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Tenant != h.Tenant || got.Model != h.Model || got.Ticks != h.Ticks || got.From != h.From {
		t.Fatalf("round trip mangled metadata: %+v", got)
	}
	if string(got.Payload) != string(h.Payload) {
		t.Fatalf("round trip mangled payload: %s", got.Payload)
	}
}

func TestDecodeHandoffRejectsCorruption(t *testing.T) {
	data, err := EncodeHandoff(Handoff{Tenant: "t", Ticks: 1, Payload: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte: the CRC must catch it.
	bad := append([]byte(nil), data...)
	bad[len(bad)-1] ^= 0xFF
	if _, err := DecodeHandoff(bad); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("corrupted frame decoded: err=%v", err)
	}
	// Truncate: short frame.
	if _, err := DecodeHandoff(data[:len(data)-3]); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("truncated frame decoded: err=%v", err)
	}
	// Trailing garbage after the frame must not be silently ignored.
	if _, err := DecodeHandoff(append(append([]byte(nil), data...), 'x')); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("frame with trailing garbage decoded: err=%v", err)
	}
}

func TestSenderRetriesUntilAck(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != TransferPath {
			t.Errorf("unexpected path %s", r.URL.Path)
		}
		if calls.Add(1) < 3 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	var slept []time.Duration
	s := &Sender{
		HTTPClient: srv.Client(),
		Sleep:      func(_ context.Context, d time.Duration) error { slept = append(slept, d); return nil },
	}
	h := Handoff{Tenant: "t", Ticks: 5, Payload: json.RawMessage(`{}`)}
	if err := s.Send(context.Background(), srv.URL, h); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
	if len(slept) != 2 {
		t.Fatalf("sleeps = %v, want 2 backoffs", slept)
	}
}

func TestSenderHonorsRetryAfterHint(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	var slept []time.Duration
	s := &Sender{
		HTTPClient: srv.Client(),
		Sleep:      func(_ context.Context, d time.Duration) error { slept = append(slept, d); return nil },
	}
	err := s.Send(context.Background(), srv.URL, Handoff{Tenant: "t", Payload: json.RawMessage(`{}`)})
	if err != nil {
		t.Fatal(err)
	}
	if len(slept) != 1 || slept[0] != 2*time.Second {
		t.Fatalf("slept %v, want the server's 2s hint to win over the 50ms base", slept)
	}
}

func TestSenderTerminalOn4xx(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "no such model", http.StatusBadRequest)
	}))
	defer srv.Close()

	s := &Sender{HTTPClient: srv.Client(), Sleep: func(context.Context, time.Duration) error { return nil }}
	err := s.Send(context.Background(), srv.URL, Handoff{Tenant: "t", Payload: json.RawMessage(`{}`)})
	if err == nil {
		t.Fatal("4xx did not fail the send")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("4xx retried: %d attempts", got)
	}
}

func TestSendUpdateRoundTrip(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != UpdatePath {
			t.Errorf("unexpected path %s", r.URL.Path)
		}
		var u PeerUpdate
		if err := json.NewDecoder(r.Body).Decode(&u); err != nil {
			t.Errorf("decode update: %v", err)
		}
		if u.Kind != "hello" || u.From != "http://joiner:1" {
			t.Errorf("update = %+v", u)
		}
		_ = json.NewEncoder(w).Encode(PeerUpdateReply{Tenants: []string{"a", "b"}})
	}))
	defer srv.Close()

	s := &Sender{HTTPClient: srv.Client()}
	reply, err := s.SendUpdate(context.Background(), srv.URL, PeerUpdate{Kind: "hello", From: "http://joiner:1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Tenants) != 2 || reply.Tenants[0] != "a" {
		t.Fatalf("reply = %+v", reply)
	}
}

// TestParseRetryAfter pins the sender's use of the parser: with a zero
// fallback, a worthless hint means "no hint". The full table of both RFC 9110
// forms lives with the client in internal/serve.
func TestParseRetryAfter(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want time.Duration
	}{
		{"", 0}, {"3", 3 * time.Second}, {"0", 0}, {"-1", 0}, {"soon", 0},
	} {
		if got := ParseRetryAfter(tc.in, 0); got != tc.want {
			t.Errorf("ParseRetryAfter(%q, 0) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
