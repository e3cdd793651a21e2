package neutralnet

import "neutralnet/internal/sweep"

// Test-only exports. This file is compiled only into the test binary, so
// the deterministic fault seam (internal/faultinject) stays unreachable
// from production code: these setters are the single way to arm a hook on
// an Engine or session.

// SetFaultHook arms the Engine's per-point fault seam: h is consulted once
// per sweep point with the point's row-major rank, before the solve. Arm
// before the sweep starts; nil disarms.
func (e *Engine) SetFaultHook(h sweep.FaultHook) { e.cfg.faultHook = h }

// SetFaultHook arms the duopoly session's per-point fault seam.
func (s *DuopolySession) SetFaultHook(h sweep.FaultHook) { s.cfg.faultHook = h }

// SetFaultHook arms the oligopoly session's per-point fault seam.
func (s *OligopolySession) SetFaultHook(h sweep.FaultHook) { s.cfg.faultHook = h }
