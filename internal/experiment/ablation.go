package experiment

import (
	"fmt"
	"time"

	"github.com/epsilondb/epsilondb/internal/core"
	"github.com/epsilondb/epsilondb/internal/workload"
)

// RunHistoryAblation measures the effect of the per-object write-history
// depth (§5.1's empirically chosen K=20): throughput, aborts, and
// inexact proper-value lookups at medium epsilon as K varies. Shallow
// histories force the engine to approximate proper values (or abort,
// under AbortOnProperMiss), which distorts inconsistency accounting.
func RunHistoryAblation(base Config, depths []int, progress func(string)) (Figure, []Result, error) {
	base.Workload.TIL = workload.LevelMedium.TIL
	base.Workload.TEL = workload.LevelMedium.TEL
	tput := Series{Name: "closed-loop throughput (txn/s)"}
	aborts := Series{Name: "aborts"}
	misses := Series{Name: "proper misses"}
	var results []Result
	for _, k := range depths {
		cfg := base
		cfg.HistoryDepth = k
		res, err := Run(cfg)
		if err != nil {
			return Figure{}, nil, fmt.Errorf("history ablation k=%d: %w", k, err)
		}
		res.Label = fmt.Sprintf("k=%d", k)
		results = append(results, res)
		if progress != nil {
			progress(fmt.Sprintf("K=%-4d %s misses=%d", k, res, res.ProperMisses))
		}
		x := float64(k)
		tput.X = append(tput.X, x)
		tput.Y = append(tput.Y, res.Throughput)
		aborts.X = append(aborts.X, x)
		aborts.Y = append(aborts.Y, float64(res.Aborts))
		misses.X = append(misses.X, x)
		misses.Y = append(misses.Y, float64(res.ProperMisses))
	}
	return Figure{
		ID:     "abl-hist",
		Title:  "Ablation: write-history depth K (medium epsilon, §5.1)",
		XLabel: "history depth K",
		YLabel: "metric",
		Series: []Series{tput, aborts, misses},
	}, results, nil
}

// RunHierarchyOverhead measures the §3.1 caveat that "hierarchical
// specification and control does not come free of charge": the CPU cost
// of the bottom-up Admit walk as hierarchy depth grows, in nanoseconds
// per admitted operation.
func RunHierarchyOverhead(depths []int, opsPerDepth int) (Figure, error) {
	if opsPerDepth <= 0 {
		opsPerDepth = 200_000
	}
	se := Series{Name: "ns per Admit"}
	for _, depth := range depths {
		if depth < 1 {
			return Figure{}, fmt.Errorf("hierarchy overhead: depth %d < 1", depth)
		}
		schema := core.NewSchema()
		parent := core.RootGroup
		spec := core.BoundSpec{Transaction: core.NoLimit}
		for level := 0; level < depth-1; level++ {
			name := fmt.Sprintf("g%d", level)
			g, err := schema.AddGroup(name, parent)
			if err != nil {
				return Figure{}, err
			}
			spec = spec.WithGroup(name, core.NoLimit)
			parent = g
		}
		if err := schema.Assign(1, parent); err != nil {
			return Figure{}, err
		}
		acc, err := core.NewAccumulator(schema, spec, true)
		if err != nil {
			return Figure{}, err
		}
		start := time.Now()
		for i := 0; i < opsPerDepth; i++ {
			if err := acc.Admit(1, 1, core.NoLimit); err != nil {
				return Figure{}, err
			}
		}
		elapsed := time.Since(start)
		se.X = append(se.X, float64(depth))
		se.Y = append(se.Y, float64(elapsed.Nanoseconds())/float64(opsPerDepth))
	}
	return Figure{
		ID:     "abl-hier",
		Title:  "Ablation: hierarchical control overhead (Admit cost vs depth)",
		XLabel: "hierarchy depth (levels)",
		YLabel: "ns per admitted operation",
		Series: []Series{se},
	}, nil
}
