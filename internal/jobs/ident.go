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

// validate applies the same up-front identifier validation Runner.Sweep
// performs, so a bad matrix is rejected at submission with the
// sentinel-coded error rather than failing the job later.
func validate(sw muontrap.Sweep) error {
	if len(sw.Workloads) == 0 && len(sw.Attacks) == 0 {
		return fmt.Errorf("sweep declares no workloads or attacks")
	}
	if len(sw.Schemes) == 0 {
		return fmt.Errorf("sweep declares no schemes")
	}
	for _, w := range sw.Workloads {
		if _, err := muontrap.ParseWorkload(string(w)); err != nil {
			return err
		}
	}
	for _, a := range sw.Attacks {
		if _, err := muontrap.ParseAttackName(string(a)); err != nil {
			return err
		}
	}
	for _, sch := range sw.Schemes {
		if sch == "" {
			continue // empty means the insecure baseline, as everywhere
		}
		if _, err := muontrap.ParseScheme(string(sch)); err != nil {
			return err
		}
	}
	return nil
}

// Scales resolves a sweep's scales exactly as a runner at this identity
// will: an empty list means one run at the configured default.
func (id Identity) Scales(sw muontrap.Sweep) []float64 {
	if len(sw.Scales) > 0 {
		return sw.Scales
	}
	scale := id.Scale
	if scale <= 0 {
		scale = figures.DefaultOptions().Scale
	}
	return []float64{scale}
}

// total counts a sweep's declared cells.
func (id Identity) total(sw muontrap.Sweep) int {
	return len(sw.Workloads)*len(sw.Schemes)*len(id.Scales(sw)) + len(sw.Attacks)*len(sw.Schemes)
}

// Key derives the content key of a sweep's result: the SHA-256 of
// canonical.
func (id Identity) Key(sw muontrap.Sweep) string {
	sum := sha256.Sum256([]byte(id.canonical(sw)))
	return hex.EncodeToString(sum[:])
}

// canonical is the pre-hash key string: the resolved matrix in
// declaration order (order is part of the result — SweepResult is
// declaration-ordered), every option that can change an outcome, and the
// simulator build fingerprint. Worker count is deliberately absent: the
// determinism tests pin that parallelism never changes results. Priority
// and tenant are absent for the same reason — they decide when a result
// is computed, never what it is.
func (id Identity) canonical(sw muontrap.Sweep) string {
	maxCycles := sw.MaxCycles
	if maxCycles <= 0 {
		maxCycles = id.MaxCycles
	}
	if maxCycles <= 0 {
		maxCycles = figures.DefaultOptions().MaxCycles
	}
	scales := make([]string, 0, len(sw.Scales))
	for _, sc := range id.Scales(sw) {
		scales = append(scales, strconv.FormatFloat(sc, 'g', -1, 64))
	}
	wl := make([]string, len(sw.Workloads))
	for i, w := range sw.Workloads {
		wl[i] = string(w)
	}
	sch := make([]string, len(sw.Schemes))
	for i, x := range sw.Schemes {
		if x == "" {
			// The empty scheme is the documented alias for the insecure
			// baseline everywhere it is accepted; normalize before hashing
			// so the alias and the name share one stored result.
			x = muontrap.SchemeInsecure
		}
		sch[i] = string(x)
	}
	atk := make([]string, len(sw.Attacks))
	for i, a := range sw.Attacks {
		atk[i] = string(a)
	}
	return fmt.Sprintf("sweep|v%d|bin=%s|wl=%s|atk=%s|sch=%s|scales=%s|max=%d|warm=%d|every=%d",
		journalVersion, figures.BinFingerprint(),
		strings.Join(wl, ","), strings.Join(atk, ","), strings.Join(sch, ","),
		strings.Join(scales, ","), maxCycles, id.Warmup, id.CheckpointEvery)
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
