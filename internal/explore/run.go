package explore

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/member"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Config parameterizes an exploration: the workload shape every schedule
// runs, and the exploration budget knobs. The zero value explores the CI
// smoke shape.
type Config struct {
	// Nodes/Msgs/Size/Transitions shape the churn workload each schedule
	// drives (defaults 8/6/512/4 — small enough that one run is a few
	// milliseconds of wall time, large enough to roll several epochs).
	Nodes       int
	Msgs        int
	Size        int
	Transitions int
	// Seed feeds the cluster RNG and (mixed per derivation) the churn
	// plan; Schedule.Seed overrides it per schedule.
	Seed int64
	// Deadline bounds each run in virtual time (default 1 simulated
	// second).
	Deadline sim.Time
	// MaxShrinkRuns caps the re-executions delta-debugging may spend per
	// counterexample (default 250).
	MaxShrinkRuns int
	// Metrics optionally receives explorer instrumentation (runs,
	// failures, shrink runs). Each schedule's cluster always uses a
	// private registry — the invariant checker needs an isolated diff.
	Metrics *metrics.Registry

	// failNonDefault is the test-only injected mutation: when > 0, a run
	// is marked failed once it takes at least this many non-default
	// tie-break decisions. It exists to prove end to end that the
	// explorer catches a schedule-dependent bug and shrinks it to a
	// minimal decision set.
	failNonDefault int
}

func (c Config) withDefaults() Config {
	if c.Nodes <= 0 {
		c.Nodes = 8
	}
	if c.Msgs <= 0 {
		c.Msgs = 6
	}
	if c.Size <= 0 {
		c.Size = 512
	}
	if c.Transitions <= 0 {
		c.Transitions = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Deadline <= 0 {
		c.Deadline = sim.Second
	}
	if c.MaxShrinkRuns <= 0 {
		c.MaxShrinkRuns = 250
	}
	return c
}

// Outcome is one schedule's verdict plus the observations the explorer
// steers by.
type Outcome struct {
	Schedule   Schedule
	Pass       bool
	Violations []string

	// ChoicePoints counts the Steps where >= 2 events were enabled;
	// MaxBranch the widest such set; NonDefault how many of the
	// schedule's ticks actually changed a decision (a tick whose pos the
	// run never reached, or whose val reduced to 0, moves nothing).
	ChoicePoints int
	MaxBranch    int
	NonDefault   int

	Finish      sim.Time
	Epochs      int
	Rejected    int
	Transitions int
}

// plan regenerates cfg's churn plan with sched's shifts applied. The base
// plan is chaos.ChurnPlan, the membership campaign's own derivation, so
// schedule seed s explores the same workload memberbench scripts at seed s.
func (cfg Config) plan(sched Schedule) (workload.ChurnPlan, error) {
	plan, err := chaos.ChurnPlan(cfg.Nodes, cfg.Transitions, cfg.Msgs, cfg.Size, sched.Seed)
	if err != nil {
		return plan, err
	}
	for _, sh := range sched.Shifts {
		if sh.Event < 0 || sh.Event >= len(plan.Events) {
			continue // shrinking may orphan a shift; it just stops mattering
		}
		plan.Events[sh.Event].At += sh.By
	}
	return plan, nil
}

// Run executes one schedule from scratch — fresh serial cluster, fresh
// churn plan, the schedule's faults installed, the schedule's tie-break
// decisions fed to the engine chooser — and evaluates the full membership
// invariant on the trace. Identical (Config, Schedule) pairs produce
// identical Outcomes, which is what makes the printed repro command a
// faithful replay.
func Run(cfg Config, sched Schedule) Outcome {
	cfg = cfg.withDefaults()
	if sched.Seed == 0 {
		sched.Seed = cfg.Seed
	}
	out := Outcome{Schedule: sched}

	plan, err := cfg.plan(sched)
	if err != nil {
		out.Violations = []string{err.Error()}
		return out
	}

	reg := metrics.New()
	ccfg := cluster.DefaultConfig(cfg.Nodes)
	ccfg.Seed = sched.Seed
	ccfg.Metrics = reg
	c := cluster.New(ccfg.Nodes, cluster.WithConfig(ccfg))
	if c.Eng == nil {
		panic("explore: schedule exploration requires a serial cluster")
	}

	inj := chaos.NewInjector(c.Net, chaos.ScenarioSeed(sched.Seed, "explore-faults"))
	for i, f := range sched.Faults {
		name := fmt.Sprintf("%s-%d", f.Kind, i)
		until := f.At + f.Dur
		switch f.Kind {
		case FaultDropData:
			inj.DropWindow(name, f.At, until, chaos.MatchData)
		case FaultDropAcks:
			inj.DropWindow(name, f.At, until, chaos.MatchAcks)
		case FaultDup:
			inj.Duplicate(name, f.At, until, 3, chaos.MatchAll)
		case FaultPause:
			n := f.Node
			if n < 0 || n >= cfg.Nodes {
				n = cfg.Nodes - 1
			}
			inj.PauseNIC(c.Nodes[n].HW, f.At, until)
		default:
			out.Violations = []string{fmt.Sprintf("explore: unknown fault kind %q", f.Kind)}
			return out
		}
	}

	// The chooser consumes the schedule's sparse tick overrides by choice
	// position; every position not named fires the default (FIFO) pick.
	ticks := make(map[uint32]uint32, len(sched.Ticks))
	for _, t := range sched.Ticks {
		ticks[t.Pos] = t.Val
	}
	points, maxBranch, nonDefault := 0, 0, 0
	c.Eng.SetChooser(func(n int) int {
		pos := uint32(points)
		points++
		if n > maxBranch {
			maxBranch = n
		}
		if v, ok := ticks[pos]; ok {
			pick := int(v % uint32(n))
			if pick != 0 {
				nonDefault++
			}
			return pick
		}
		return 0
	})

	data := c.OpenPorts(chaos.Port)
	ctrl := c.OpenPorts(chaos.CtrlPort)
	before := reg.Snapshot()
	res := member.RunOn(c, member.Config{
		DataPort: chaos.Port,
		CtrlPort: chaos.CtrlPort,
		Deadline: cfg.Deadline,
	}, plan, data, ctrl)
	diff := reg.Snapshot().Diff(before)

	out.Violations = chaos.CheckMemberRun(c, ccfg, res, data, ctrl, diff, cfg.Deadline)
	if cfg.failNonDefault > 0 && nonDefault >= cfg.failNonDefault {
		out.Violations = append(out.Violations, fmt.Sprintf(
			"injected mutation: %d non-default decisions taken (threshold %d)", nonDefault, cfg.failNonDefault))
	}
	out.Pass = len(out.Violations) == 0
	out.ChoicePoints = points
	out.MaxBranch = maxBranch
	out.NonDefault = nonDefault
	out.Finish = res.Finish
	out.Epochs = len(res.Epochs)
	out.Rejected = res.Rejected
	out.Transitions = res.Transitions

	c.Eng.SetChooser(nil)
	c.Kill()
	return out
}

// ReproCommand renders the one-line command that replays a schedule.
func ReproCommand(cfg Config, sched Schedule) string {
	cfg = cfg.withDefaults()
	return fmt.Sprintf("go run ./cmd/explore -nodes %d -msgs %d -size %d -transitions %d -replay '%s'",
		cfg.Nodes, cfg.Msgs, cfg.Size, cfg.Transitions, sched.String())
}
