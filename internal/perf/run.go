package perf

import (
	"fmt"
	"time"
)

// Run executes the suite under the fixed protocol and returns the report.
//
// Protocol: the shared fixture (graph, sources, edge counter) is built
// once; every scenario then runs Warmup unrecorded iterations; finally
// Reps recorded repetitions are taken *interleaved* — repetition r runs
// every scenario once, in suite order, before repetition r+1 starts.
// Interleaving spreads slow machine-state drift (thermal throttling, a
// background compile) across all scenarios instead of concentrating it in
// whichever scenario happened to run during the disturbance: a ratio row
// divides two scenarios' medians, so both must see the same drift.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	for name, factor := range cfg.Handicaps {
		if _, err := findScenario(name); err != nil {
			return nil, err
		}
		if factor <= 0 {
			return nil, fmt.Errorf("perf: handicap factor %g for %q must be positive", factor, name)
		}
	}

	fmt.Fprintf(cfg.out(), "perf: building fixtures (kron scale=%d, large scale=%d, %d sources, %d workers)\n",
		cfg.Scale, cfg.LargeScale, cfg.Sources, cfg.Workers)
	env, err := newSuiteEnv(cfg)
	if err != nil {
		return nil, err
	}
	defer env.close()
	scens := Scenarios()

	for w := 0; w < cfg.Warmup; w++ {
		for _, s := range scens {
			s.run(env)
		}
	}
	fmt.Fprintf(cfg.out(), "perf: warmup done (%d rounds), measuring %d interleaved reps\n",
		cfg.Warmup, cfg.Reps)

	type acc struct {
		samples []int64
		last    Sample
	}
	accs := make([]acc, len(scens))
	for r := 0; r < cfg.Reps; r++ {
		for i, s := range scens {
			smp := s.run(env)
			if f, ok := cfg.Handicaps[s.Name]; ok {
				smp.Elapsed = time.Duration(float64(smp.Elapsed) * f)
			}
			accs[i].samples = append(accs[i].samples, int64(smp.Elapsed))
			accs[i].last = smp
		}
		fmt.Fprintf(cfg.out(), "perf: rep %d/%d done\n", r+1, cfg.Reps)
	}
	for _, name := range sortedHandicapNames(cfg.Handicaps) {
		fmt.Fprintf(cfg.out(), "perf: NOTE scenario %s handicapped x%g (ratio gate self-test)\n",
			name, cfg.Handicaps[name])
	}

	report := &Report{
		SchemaVersion: SchemaVersion,
		CreatedUnix:   time.Now().Unix(),
		Env:           CaptureEnvironment(),
		Config: RunConfig{
			Quick:      cfg.Quick,
			Scale:      cfg.Scale,
			LargeScale: cfg.LargeScale,
			Sources:    cfg.Sources,
			Workers:    cfg.Workers,
			Warmup:     cfg.Warmup,
			Reps:       cfg.Reps,
			Seed:       cfg.Seed,
			Handicaps:  cfg.Handicaps,
		},
	}
	for i, s := range scens {
		a := accs[i]
		med := median(a.samples)
		row := Row{
			Name:      s.Name,
			Title:     s.Title,
			WorkUnit:  s.WorkUnit,
			WorkPerOp: a.last.Work,
			Reps:      len(a.samples),
			SamplesNs: a.samples,
			MedianNs:  med,
			MADNs:     mad(a.samples),
		}
		if med > 0 {
			row.Rate = float64(a.last.Work) / (float64(med) / 1e9)
		}
		if s.WorkUnit == UnitEdgesTraversed {
			row.GTEPS = row.Rate / 1e9
		}
		if a.last.Stats != nil {
			sum := a.last.Stats.Summary()
			row.Run = &sum
		}
		report.Scenarios = append(report.Scenarios, row)
	}
	report.Ratios = report.ratios()
	return report, nil
}
