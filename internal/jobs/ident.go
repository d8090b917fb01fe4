package jobs

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/figures"
	"repro/muontrap"
)

// journalVersion versions the journal entry layout. It also enters every
// content key, so a layout bump invalidates stored results rather than
// misreading them.
const journalVersion = 1

// Identity is the set of daemon flags that can change a result (zero =
// library default). It enters every content key and is journaled with
// every job; a fleet coordinator and its workers must agree on it. The
// JSON names are the journal's.
type Identity struct {
	CheckpointEvery int     `json:"checkpoint_every"`
	Warmup          int     `json:"warmup"`
	Scale           float64 `json:"scale"`
	MaxCycles       int     `json:"max_cycles"`
}

// Key derives the content key of a sweep's result: the SHA-256 of
// canonical.
func (id Identity) Key(sw muontrap.Sweep) string {
	sum := sha256.Sum256([]byte(id.canonical(sw)))
	return hex.EncodeToString(sum[:])
}

// canonical is the pre-hash key string: the normalized matrix
// (muontrap.Sweep.Normalize at this identity) in declaration order
// (order is part of the result — SweepResult is declaration-ordered),
// every option that can change an outcome, and the simulator build
// fingerprint. Worker count is deliberately absent: the
// determinism tests pin that parallelism never changes results. Priority
// and tenant are absent for the same reason — they decide when a result
// is computed, never what it is.
func (id Identity) canonical(sw muontrap.Sweep) string {
	n := sw.Normalize(id.Scale, id.MaxCycles)
	scales := make([]string, len(n.Scales))
	for i, sc := range n.Scales {
		scales[i] = strconv.FormatFloat(sc, 'g', -1, 64)
	}
	return fmt.Sprintf("sweep|v%d|bin=%s|wl=%s|atk=%s|sch=%s|scales=%s|max=%d|warm=%d|every=%d",
		journalVersion, figures.BinFingerprint(), join(n.Workloads), join(n.Attacks), join(n.Schemes),
		strings.Join(scales, ","), n.MaxCycles, id.Warmup, id.CheckpointEvery)
}

// join renders an identifier list comma-separated.
func join[T ~string](names []T) string {
	s := make([]string, len(names))
	for i, n := range names {
		s[i] = string(n)
	}
	return strings.Join(s, ",")
}

// check verifies that a journaled job's identity matches this one. On a
// mismatch the job loads but refuses resume (409): its cache key embeds
// the old values, and a resumed attempt under new flags would run a
// different experiment while storing its result under the old key.
func (id Identity) check(jobID string, rec Identity) error {
	mismatch := func(field string, old, new any) error {
		return fmt.Errorf("job %s was recorded with %s=%v, this daemon is configured with %v; restart with the original flags to resume it",
			jobID, field, old, new)
	}
	switch {
	case rec.CheckpointEvery != id.CheckpointEvery:
		return mismatch("checkpoint cadence", rec.CheckpointEvery, id.CheckpointEvery)
	case rec.Warmup != id.Warmup:
		return mismatch("warmup", rec.Warmup, id.Warmup)
	case rec.Scale != id.Scale:
		return mismatch("scale", rec.Scale, id.Scale)
	case rec.MaxCycles != id.MaxCycles:
		return mismatch("max-cycles", rec.MaxCycles, id.MaxCycles)
	}
	return nil
}

// newJobID returns a fresh random job identifier.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failure is unrecoverable noise; fall back to a
		// time-derived ID rather than refusing service.
		return fmt.Sprintf("job-t%x", time.Now().UnixNano())
	}
	return "job-" + hex.EncodeToString(b[:])
}

// ValidKey reports whether key has the exact shape Key produces: 64
// lowercase hex digits. Everything else is rejected before any
// filesystem path is built from it — /v1/results/{key} takes the key
// from the URL, and ServeMux decodes %2F inside a path segment, so an
// unvalidated key would traverse out of the sweeps directory.
func ValidKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
