package jobs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/muontrap"
)

// SSE fan-out that scales to many watchers per job, pull-based:
//
//   - One bounded ring of recent frames per job, sized to the job's
//     cell count so a live job replays whole. Publishing appends to
//     the ring and pokes each subscriber with a 1-slot signal — the
//     publisher never blocks on a slow consumer and never copies frames
//     per subscriber.
//   - Each subscriber reads the shared ring at its own cursor. Every
//     frame carries a monotonically increasing SSE id, so a client that
//     was disconnected (including deliberately, by the per-write
//     deadline that sheds dead or too-slow consumers) reconnects with
//     Last-Event-ID and resumes from its cursor.
//   - A consumer that falls further behind than the ring holds simply
//     continues from the oldest retained frame: progress frames are
//     advisory, the result is authoritative, and a done job's complete
//     per-cell sequence is synthesized from the stored result anyway.

// streamEvent is one SSE frame: its id (monotonic per job, never reset
// across resumed attempts so Last-Event-ID stays unambiguous), an event
// name and a JSON payload.
type streamEvent struct {
	id   uint64
	name string
	data []byte
}

// streamWriteTimeout bounds one SSE write; a consumer that cannot accept
// a frame within it is disconnected (resumably, via Last-Event-ID)
// rather than pinning daemon memory or a goroutine.
const streamWriteTimeout = 30 * time.Second

// eventRing is a fixed-capacity ring of the most recent frames.
type eventRing struct {
	buf  []streamEvent
	next int // index the next append writes
	n    int // live frames (≤ cap)
}

// newEventRing sizes a job's ring to hold all total frames: an attempt
// publishes at most one frame per cell (a new attempt clears the ring
// first), so a subscriber of a live job replays it whole, and a done
// job's frames are synthesized from its result.
func newEventRing(total int) *eventRing {
	return &eventRing{buf: make([]streamEvent, max(1, total))}
}

// append records a frame, evicting the oldest when full.
func (r *eventRing) append(ev streamEvent) {
	r.buf[r.next] = ev
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
}

// since returns (a copy of) every retained frame with id > cursor, in
// publication order.
func (r *eventRing) since(cursor uint64) []streamEvent {
	if r.n == 0 {
		return nil
	}
	var out []streamEvent
	start := (r.next - r.n + len(r.buf)) % len(r.buf)
	for i := 0; i < r.n; i++ {
		ev := r.buf[(start+i)%len(r.buf)]
		if ev.id > cursor {
			out = append(out, ev)
		}
	}
	return out
}

// clear drops every retained frame (ids keep counting from where they
// were: a resumed attempt's frames must stay distinguishable from the
// preempted attempt's for Last-Event-ID resumption).
func (r *eventRing) clear() {
	r.n = 0
	r.next = 0
}

// subscriber is one attached SSE consumer: a 1-slot wakeup signal. The
// frames themselves live in the job's ring; the subscriber tracks its
// own cursor in the HTTP handler.
type subscriber struct {
	wake chan struct{}
}

// poke wakes the subscriber without ever blocking the publisher.
func (s *subscriber) poke() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// attach registers a stream subscriber.
func (j *Job) attach() *subscriber {
	sub := &subscriber{wake: make(chan struct{}, 1)}
	j.Lock()
	j.subs[sub] = struct{}{}
	j.Unlock()
	return sub
}

// detach removes a stream subscriber (client went away or was shed).
func (j *Job) detach(sub *subscriber) {
	j.Lock()
	delete(j.subs, sub)
	j.Unlock()
}

// eventsSince atomically snapshots the retained frames newer than cursor
// and the record, so a subscriber observes frames and the terminal state
// in a consistent order.
func (j *Job) eventsSince(cursor uint64) ([]streamEvent, muontrap.Job) {
	j.Lock()
	defer j.Unlock()
	return j.ring.since(cursor), j.Rec
}

// handleStream serves a job's life over Server-Sent Events:
//
//	event: job        one snapshot, immediately on connect
//	event: progress   one muontrap.Progress per completed cell, with an
//	                  "id:" line carrying the job's monotonic frame id
//	event: <state>    terminal Job snapshot (done/failed/cancelled/interrupted)
//
// Subscribers pull frames from the job's ring at their own cursor:
// attaching replays the retained frames, publication never blocks on a
// slow consumer, and a consumer that cannot accept a write within
// streamWriteTimeout is disconnected rather than pinning memory.
// Reconnecting with Last-Event-ID resumes after the last frame seen.
// When a done job's frames are not held (daemon restarted since, or a
// born-done cache hit), the complete per-cell sequence is synthesized
// from the result instead, in declaration order with positional ids —
// the ordering authority is always the declaration-ordered result.
//
// A job re-queued without an end state (the daemon's preemption) emits
// no terminal event: its stream stays open and the next attempt's frames
// follow on the same connection.
func (f *Front) handleStream(w http.ResponseWriter, r *http.Request, h Handle) {
	j := h.base()
	flusher, ok := w.(http.Flusher)
	if !ok {
		WriteError(w, fmt.Errorf("streaming unsupported by this connection"))
		return
	}
	var cursor uint64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			cursor = n
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	rc := http.NewResponseController(w)
	write := func(id uint64, name string, data []byte) bool {
		// The per-write deadline is the shed mechanism for dead or
		// too-slow consumers: a blocked write aborts this subscriber
		// (only), and the client's Last-Event-ID makes the cut resumable.
		_ = rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
		var err error
		if id > 0 {
			_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, name, data)
		} else {
			_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, data)
		}
		return err == nil
	}
	writeRec := func(event string, rec muontrap.Job) bool {
		data, err := json.Marshal(rec)
		return err == nil && write(0, event, data)
	}

	sub := j.attach()
	f.subscribers.Add(1)
	defer func() {
		j.detach(sub)
		f.subscribers.Add(-1)
	}()

	if !writeRec("job", j.Snapshot()) {
		return
	}
	for {
		evs, snap := j.eventsSince(cursor)
		if snap.State == muontrap.JobDone && len(evs) == 0 && cursor < uint64(snap.Total) {
			if res, ok := f.doneResult(j); ok {
				for i, run := range res.Runs {
					id := uint64(i + 1)
					if id <= cursor {
						continue
					}
					data, err := json.Marshal(muontrap.Progress{Done: i + 1, Total: len(res.Runs), Run: run})
					if err == nil {
						evs = append(evs, streamEvent{id: id, name: "progress", data: data})
					}
				}
			}
		}
		for _, ev := range evs {
			if !write(ev.id, ev.name, ev.data) {
				return
			}
			cursor = ev.id
		}
		if snap.State.Terminal() {
			writeRec(string(snap.State), snap)
			flusher.Flush()
			return
		}
		flusher.Flush()
		select {
		case <-sub.wake:
		case <-r.Context().Done():
			return
		}
	}
}
