package muontrap

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/defense"
	"repro/internal/figures"
)

// The public face of the security matrix: the full attack-scenario corpus
// run under the compared schemes, reported as a scheme × scenario verdict
// table. The matrix is a golden artifact — its rendered form is pinned
// byte-for-byte by the regression suite and is identical whether the cells
// ran in-process, from the disk cache, or sharded across a fleet.

// SecuritySchemes returns the matrix's scheme columns in table order: the
// insecure baseline, the paper's cumulative protection stages, and
// SafeBet.
func SecuritySchemes() []Scheme {
	var out []Scheme
	for _, s := range defense.SecurityComparison() {
		out = append(out, Scheme(s.Name))
	}
	return out
}

// SecurityMatrixResult is the scheme × scenario verdict table.
type SecurityMatrixResult struct {
	// Schemes is the column order.
	Schemes []Scheme `json:"schemes"`
	// Rows holds one attack scenario per row, in registry (sorted) order.
	Rows []SecurityRow `json:"rows"`
}

// SecurityRow is one scenario's verdict under every scheme, aligned with
// the matrix's Schemes.
type SecurityRow struct {
	Attack  AttackName     `json:"attack"`
	Results []AttackResult `json:"results"`
}

// Render prints the matrix as the canonical fixed-width table. The output
// is a golden artifact: it is pinned byte for byte and compared across
// in-process, disk-cached and fleet-sharded execution, so it depends only
// on the verdicts, never on timing or environment.
func (m *SecurityMatrixResult) Render() string {
	var b strings.Builder
	b.WriteString("Security matrix: scenario (rows) vs scheme (columns); leak(value,signal) or block(signal)\n")
	fmt.Fprintf(&b, "%-16s", "scenario")
	for _, s := range m.Schemes {
		fmt.Fprintf(&b, " %-15s", s)
	}
	b.WriteByte('\n')
	for _, row := range m.Rows {
		fmt.Fprintf(&b, "%-16s", row.Attack)
		for _, r := range row.Results {
			fmt.Fprintf(&b, " %-15s", figures.SecurityVerdict(r))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// AttackVerdict decodes the attack result an attack cell carries in its
// counters. It reports false for workload cells.
func (r RunResult) AttackVerdict() (AttackResult, bool) {
	if r.Attack == "" {
		return AttackResult{}, false
	}
	return figures.DecodeAttackCounters(string(r.Attack), r.Counters)
}

// SecurityMatrix runs the full corpus under every SecuritySchemes column
// through the runner's sweep path — sharing its memoization, disk cache
// and worker pool — and assembles the verdict table.
func (r *Runner) SecurityMatrix(ctx context.Context) (*SecurityMatrixResult, error) {
	sw := Sweep{Attacks: AttackNames(), Schemes: SecuritySchemes()}
	res, err := r.Sweep(ctx, sw)
	if err != nil {
		return nil, err
	}
	return SecurityMatrixFromSweep(sw, res)
}

// SecurityMatrixFromSweep assembles the verdict table from a completed
// sweep's attack cells — however the sweep ran (a local Runner, the
// experiment service, or a fleet coordinator), the same declaration yields
// the same table. The sweep must be valid and declare at least one attack;
// res must hold one run per declared cell, in declaration order. Workload
// cells are ignored.
func SecurityMatrixFromSweep(sw Sweep, res *SweepResult) (*SecurityMatrixResult, error) {
	n, cells, err := sw.Cells(0, 0)
	if err != nil {
		return nil, err
	}
	if len(n.Attacks) == 0 {
		return nil, fmt.Errorf("muontrap: sweep declares no attack cells")
	}
	if len(res.Runs) != len(cells) {
		return nil, fmt.Errorf("muontrap: sweep result holds %d runs for %d declared cells", len(res.Runs), len(cells))
	}
	m := &SecurityMatrixResult{Schemes: n.Schemes}
	for i, c := range cells {
		if c.Attack == "" {
			continue
		}
		run := res.Runs[i]
		v, ok := run.AttackVerdict()
		if !ok || run.Attack != c.Attack || run.Scheme != c.Scheme {
			return nil, fmt.Errorf("muontrap: sweep result is missing attack cell %s/%s", c.Attack, c.Scheme)
		}
		if len(m.Rows) == 0 || len(m.Rows[len(m.Rows)-1].Results) == len(m.Schemes) {
			m.Rows = append(m.Rows, SecurityRow{Attack: c.Attack})
		}
		row := &m.Rows[len(m.Rows)-1]
		row.Results = append(row.Results, v)
	}
	return m, nil
}
