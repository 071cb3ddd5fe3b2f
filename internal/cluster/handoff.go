package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"mdes/internal/checkpoint"
)

// Internal cluster endpoints, mounted by the serve layer on every replica.
const (
	// TransferPath receives one tenant's CRC-framed session snapshot. A move
	// (Handoff.Copy false) installs it as the receiver's live session; a copy
	// (Copy true) files it in the receiver's warm-standby store and ownership
	// stays where it was.
	TransferPath = "/v1/cluster/transfer"
	// UpdatePath receives peer announcements (PeerUpdate).
	UpdatePath = "/v1/cluster/update"
)

// Handoff is one tenant transfer: the opaque session snapshot plus enough
// metadata for the receiver to order it. Payload is whatever the serve
// layer serializes (cluster stays ignorant of session internals — the serve
// package imports cluster, never the reverse); Ticks is the snapshot's
// stream position and is the idempotency key: a receiver that already holds
// state at >= Ticks treats the handoff as a duplicate and answers 200
// without touching anything, which is what makes retries and crossed
// deliveries safe.
//
// Copy marks a warm-standby copy: From then names the tenant's ring owner,
// under whom the receiver files the frame. Without it the transfer is a move
// and From names the shipper. Frames written before Copy existed decode as
// moves, which is all a stored standby copy is ever read as.
type Handoff struct {
	Tenant  string          `json:"tenant"`
	Model   string          `json:"model"`
	Ticks   int             `json:"ticks"`
	From    string          `json:"from"`
	Copy    bool            `json:"copy,omitempty"`
	Payload json.RawMessage `json:"payload"`
}

// EncodeHandoff wraps the handoff in the checkpoint frame format
// (length + CRC-32 + payload), reusing the crash-proven framing so a
// truncated or corrupted body is detected before any state changes.
func EncodeHandoff(h Handoff) ([]byte, error) {
	payload, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("cluster: encode handoff %s: %w", h.Tenant, err)
	}
	return checkpoint.AppendFrame(nil, payload), nil
}

// ErrBadFrame reports a handoff body whose frame is short or fails its CRC.
var ErrBadFrame = errors.New("cluster: handoff frame truncated or corrupt")

// DecodeHandoff validates the frame and decodes the handoff. Exactly one
// frame must be present and intact.
func DecodeHandoff(data []byte) (Handoff, error) {
	payloads, valid, _ := checkpoint.Frames(data)
	if len(payloads) != 1 || valid != len(data) {
		return Handoff{}, ErrBadFrame
	}
	var h Handoff
	if err := json.Unmarshal(payloads[0], &h); err != nil {
		return Handoff{}, fmt.Errorf("cluster: decode handoff: %w", err)
	}
	if h.Tenant == "" {
		return Handoff{}, errors.New("cluster: handoff without tenant")
	}
	return h, nil
}

// PeerUpdate is a peer announcement POSTed to UpdatePath.
//
//   - Kind "hello": the sender just (re)joined. The receiver marks it
//     Alive and replies with the tenants it holds that belong on the
//     sender, so the sender can block them as pending until the receiver
//     ships them over.
//   - Kind "rejoin": the sender saw a peer back from Down and is greeting
//     every peer again. As "hello", except that the sender kept its disk,
//     so only the standby copies Table.Shipper ships unasked go along.
//   - Kind "leave": the sender is draining. The receiver marks it Gone and
//     records Tenants — the sessions the sender is about to ship to this
//     receiver — as pending, so a tick that races ahead of its handoff
//     waits (503) instead of fresh-starting a divergent stream.
//   - Kind "inbound": the sender is about to ship Tenants here.
//
// Ticks[i] is how fresh the sender's Tenants[i] is (Table.Pend).
type PeerUpdate struct {
	Kind    string   `json:"kind"`
	From    string   `json:"from"`
	Tenants []string `json:"tenants,omitempty"`
	Ticks   []int    `json:"ticks,omitempty"`
}

// PeerUpdateReply is the response to a PeerUpdate; Tenants and Ticks are
// only set for hello (see PeerUpdate).
type PeerUpdateReply struct {
	Tenants []string `json:"tenants,omitempty"`
	Ticks   []int    `json:"ticks,omitempty"`
}

// Sender ships transfers and updates to peers, retrying transient failures
// on one fixed schedule (Sender.retry). A 503 with Retry-After (the receiver
// is busy or itself waiting on a pending migration) honours the hint.
// Senders hold no locks — the serve layer freezes sessions first, then
// ships.
type Sender struct {
	HTTPClient *http.Client
	// Sleep replaces the backoff wait in tests (RetryPolicy.Sleep).
	Sleep func(ctx context.Context, d time.Duration) error
}

func (s *Sender) client() *http.Client {
	if s.HTTPClient != nil {
		return s.HTTPClient
	}
	return http.DefaultClient
}

// policy is every Send's and SendUpdate's schedule: 5 attempts, 50ms
// doubling to a 2s cap, unjittered.
func (s *Sender) policy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 5, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second, Sleep: s.Sleep}
}

// Send ships one transfer to peer, retrying until it is acknowledged or
// attempts are exhausted. Acknowledgement (200) means the receiver has the
// state durable (installed, stored, or recognised as a duplicate) — only then
// may the caller delete its local copy. Redelivery is always safe: the
// receiver is idempotent on the Ticks key.
func (s *Sender) Send(ctx context.Context, peer string, h Handoff) error {
	body, err := EncodeHandoff(h)
	if err != nil {
		return err
	}
	if err := s.retry(ctx, peer+TransferPath, "application/octet-stream", body, nil); err != nil {
		return fmt.Errorf("cluster: transfer %s to %s: %w", h.Tenant, peer, err)
	}
	return nil
}

// SendUpdate posts one peer announcement and decodes the reply.
func (s *Sender) SendUpdate(ctx context.Context, peer string, u PeerUpdate) (PeerUpdateReply, error) {
	body, err := json.Marshal(u)
	if err != nil {
		return PeerUpdateReply{}, fmt.Errorf("cluster: encode update: %w", err)
	}
	var reply PeerUpdateReply
	decode := func(r io.Reader) error {
		reply = PeerUpdateReply{} // a failed attempt's partial decode must not leak
		return json.NewDecoder(io.LimitReader(r, 1<<20)).Decode(&reply)
	}
	if err := s.retry(ctx, peer+UpdatePath, "application/json", body, decode); err != nil {
		return PeerUpdateReply{}, fmt.Errorf("cluster: update %s: %w", peer, err)
	}
	return reply, nil
}

// retry POSTs body until it is acknowledged, refused terminally, ctx ends,
// or the policy's attempts run out. decode, if set, reads an
// acknowledgement's body; its failure counts as a retryable attempt.
func (s *Sender) retry(ctx context.Context, url, contentType string, body []byte, decode func(io.Reader) error) error {
	post := func() error { return s.post(ctx, url, contentType, body, decode) }
	return s.policy().Do(ctx, post, func(err error) (time.Duration, bool) {
		var re *RetryableError
		if errors.As(err, &re) {
			return re.RetryAfter, ctx.Err() == nil
		}
		return 0, ctx.Err() == nil && !isTerminal(err)
	})
}

// RetryableError is a non-2xx response worth retrying, carrying the
// server's Retry-After hint when it sent one.
type RetryableError struct {
	Status     int
	RetryAfter time.Duration
}

func (e *RetryableError) Error() string {
	return fmt.Sprintf("cluster: peer answered %d (retry-after %s)", e.Status, e.RetryAfter)
}

// terminalError marks a response that retrying cannot fix (a 4xx other
// than 429: the peer understood the request and refused it).
type terminalError struct{ err error }

func (e *terminalError) Error() string { return e.err.Error() }
func (e *terminalError) Unwrap() error { return e.err }

func isTerminal(err error) bool {
	var te *terminalError
	return errors.As(err, &te)
}

// post performs one POST. Connection errors and 5xx/429 are retryable; a
// 4xx other than 429 is terminal (the peer understood and refused).
func (s *Sender) post(ctx context.Context, url, contentType string, body []byte, decode func(io.Reader) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := s.client().Do(req)
	if err != nil {
		return err
	}
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		_ = resp.Body.Close() // response already consumed; nothing to report
	}()
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		if decode != nil {
			if err := decode(resp.Body); err != nil {
				return fmt.Errorf("cluster: decode reply: %w", err)
			}
		}
		return nil
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500:
		return &RetryableError{Status: resp.StatusCode, RetryAfter: ParseRetryAfter(resp.Header.Get("Retry-After"), 0)}
	default:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return &terminalError{fmt.Errorf("cluster: peer answered %d: %s", resp.StatusCode, bytes.TrimSpace(msg))}
	}
}

// ParseRetryAfter reads a Retry-After header in either RFC 9110 form:
// delta-seconds ("2") or an HTTP-date ("Mon, 02 Jan 2006 15:04:05 GMT"),
// which becomes the wait until that instant. Missing, unparseable, negative,
// or already-past values select fallback: a hint that says "retry in the
// past" carries no schedule worth honouring.
func ParseRetryAfter(v string, fallback time.Duration) time.Duration {
	if v == "" {
		return fallback
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return fallback
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return fallback
}
