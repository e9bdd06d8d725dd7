package hier

import "repro/internal/event"

// Switches returns how many times core i's coroutine has suspended.
func Switches(h *Hierarchy, i int) uint64 { return h.cores[i].switches }

// FailL2ReadAfter makes the L2 fail the (n+1)-th demand read from core
// i with err, from inside its receive hook.
func FailL2ReadAfter(h *Hierarchy, i, n int, err error) {
	port := h.l2.fromCore[i]
	serve := port.OnRecv
	port.OnRecv = func(m MemReq, at event.Time) error {
		if !m.Write {
			if n == 0 {
				return err
			}
			n--
		}
		return serve(m, at)
	}
}
