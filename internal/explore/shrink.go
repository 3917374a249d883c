package explore

import "repro/internal/metrics"

// item is one removable decision during shrinking, tagged by list.
type item struct {
	tick  *Tick
	fault *FaultPoint
	shift *Shift
}

func scheduleItems(s Schedule) []item {
	items := make([]item, 0, s.Decisions())
	for i := range s.Ticks {
		items = append(items, item{tick: &s.Ticks[i]})
	}
	for i := range s.Faults {
		items = append(items, item{fault: &s.Faults[i]})
	}
	for i := range s.Shifts {
		items = append(items, item{shift: &s.Shifts[i]})
	}
	return items
}

func itemsSchedule(seed int64, items []item) Schedule {
	s := Schedule{Seed: seed}
	for _, it := range items {
		switch {
		case it.tick != nil:
			s.Ticks = append(s.Ticks, *it.tick)
		case it.fault != nil:
			s.Faults = append(s.Faults, *it.fault)
		case it.shift != nil:
			s.Shifts = append(s.Shifts, *it.shift)
		}
	}
	return s
}

// Shrink delta-debugs a failing outcome's schedule to a locally minimal
// decision set: classic ddmin over the combined tick/fault/shift list,
// removing complement chunks while the schedule still fails, then
// halving granularity, until no single decision can be removed. The
// returned outcome is the minimal schedule's (still-failing) run; the
// int is how many re-executions shrinking spent, bounded by
// cfg.MaxShrinkRuns. A passing outcome is returned unchanged.
func Shrink(cfg Config, failing Outcome, mRuns *metrics.Counter) (Outcome, int) {
	cfg = cfg.withDefaults()
	if failing.Pass {
		return failing, 0
	}
	seed := failing.Schedule.Seed
	items := scheduleItems(failing.Schedule)
	best := failing
	runs := 0
	try := func(sub []item) (Outcome, bool) {
		if runs >= cfg.MaxShrinkRuns {
			return Outcome{}, false
		}
		runs++
		mRuns.Inc()
		out := Run(cfg, itemsSchedule(seed, sub))
		return out, !out.Pass
	}

	n := 2
	for len(items) >= 1 && runs < cfg.MaxShrinkRuns {
		chunk := (len(items) + n - 1) / n
		reduced := false
		for start := 0; start < len(items); start += chunk {
			end := start + chunk
			if end > len(items) {
				end = len(items)
			}
			// Complement: everything except [start, end).
			sub := make([]item, 0, len(items)-(end-start))
			sub = append(sub, items[:start]...)
			sub = append(sub, items[end:]...)
			if out, stillFails := try(sub); stillFails {
				items = sub
				best = out
				n = maxInt(n-1, 2)
				reduced = true
				break
			}
		}
		if !reduced {
			if n >= len(items) {
				break // single-item granularity and nothing removable
			}
			n = minInt(2*n, len(items))
		}
	}
	return best, runs
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// exploreMetrics wires the explorer's own instrumentation into the
// (optional) caller-supplied registry.
func exploreMetrics(cfg Config) (runs, failures, shrinkRuns *metrics.Counter) {
	reg := cfg.Metrics
	return reg.Counter("explore", 0, "schedules_run"),
		reg.Counter("explore", 0, "failures"),
		reg.Counter("explore", 0, "shrink_runs")
}
