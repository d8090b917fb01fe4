package cpu

import "fmt"

// CheckIssueQueue recomputes the issue queue from the ROB and compares it
// with the wake-up structures: the ready list must be in strictly
// increasing seq order and hold exactly the unissued, unsquashed entries
// whose operands are available, and the occupancy count must equal the
// number of unissued, unsquashed entries. It also checks that only
// register-writing instructions carry waiters (nothing can name another
// as a producer). Tests call it between cycles.
func CheckIssueQueue(c *Core) error {
	for i := 1; i < len(c.ready); i++ {
		if c.ready[i-1].seq >= c.ready[i].seq {
			return fmt.Errorf("ready list out of order at %d: seq %d then %d",
				i, c.ready[i-1].seq, c.ready[i].seq)
		}
	}
	inReady := make(map[*dynInst]bool, len(c.ready))
	for _, d := range c.ready {
		inReady[d] = true
	}
	occupancy := 0
	for i := 0; i < c.rob.len(); i++ {
		d := c.rob.at(i)
		if len(d.waiters) > 0 && !d.writesReg {
			return fmt.Errorf("seq %d writes no register but has %d waiters", d.seq, len(d.waiters))
		}
		if !d.inIQ || d.issued || d.squashed {
			if inReady[d] {
				return fmt.Errorf("seq %d is on the ready list but not waiting to issue", d.seq)
			}
			continue
		}
		occupancy++
		want := operandAvailable(d.use1, d.v1Ready, d.src1, d.src1Seq) &&
			operandAvailable(d.use2, d.v2Ready, d.src2, d.src2Seq)
		if want != inReady[d] {
			return fmt.Errorf("seq %d (pc %#x): operands available %v, on ready list %v",
				d.seq, d.pc, want, inReady[d])
		}
		delete(inReady, d)
	}
	for d := range inReady {
		return fmt.Errorf("ready list holds seq %d, which is not in the ROB", d.seq)
	}
	if occupancy != c.iq {
		return fmt.Errorf("issue-queue count %d, ROB holds %d unissued entries", c.iq, occupancy)
	}
	return nil
}

// operandAvailable is operandsReady's condition for one operand, without
// capturing the value: unused, already captured, architectural, produced
// by a committed (recycled) instruction, or by a done, unfaulted one.
func operandAvailable(use, ready bool, p *dynInst, pSeq uint64) bool {
	return !use || ready || p == nil || p.seq != pSeq || (p.done && !p.faulted)
}
