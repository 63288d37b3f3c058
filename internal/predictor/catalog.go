package predictor

import (
	"fmt"

	"blbp/internal/btb"
	"blbp/internal/cascaded"
	"blbp/internal/combined"
	"blbp/internal/cond"
	"blbp/internal/core"
	"blbp/internal/ittage"
	"blbp/internal/targetcache"
	"blbp/internal/vpc"
)

// The snapshottable predictors, whose trained state a run can save and
// restore (warm start): BLBP, ITTAGE, the consolidated combined structure
// (either view), and the conditional TAGE/hashed-perceptron predictors. The
// remaining catalog entries (btb, btb2bit, targetcache, cascaded, vpc)
// intentionally do not implement Snapshotter yet; tools probing with
// AsSnapshotter must report that clearly rather than silently skipping
// state.
var (
	_ Snapshotter = (*core.BLBP)(nil)
	_ Snapshotter = (*ittage.ITTAGE)(nil)
	_ Snapshotter = (*combined.Predictor)(nil)
	_ Snapshotter = (*combined.IndirectView)(nil)
	_ Snapshotter = (*cond.TAGE)(nil)
	_ Snapshotter = (*cond.HashedPerceptron)(nil)
)

// cfgAs narrows the registry's opaque config value back to the predictor's
// own config type; a mismatch indicates a caller bypassing Entry.Config.
func cfgAs[T any](name string, cfg any) (T, error) {
	c, ok := cfg.(T)
	if !ok {
		var zero T
		return zero, fmt.Errorf("predictor: %s config has type %T, want %T", name, cfg, zero)
	}
	return c, nil
}

// The catalog: every predictor the reproduction models, registered with its
// paper-default configuration. Run plans and the CLIs construct predictors
// exclusively through these entries.
func init() {
	Register(Entry{
		Name:    "blbp",
		Doc:     "bit-level perceptron indirect predictor (paper Table 2)",
		Default: func() any { return core.DefaultConfig() },
		New: func(cfg any) (Indirect, error) {
			c, err := cfgAs[core.Config]("blbp", cfg)
			if err != nil {
				return nil, err
			}
			return core.New(c), nil
		},
	})
	Register(Entry{
		Name:    "ittage",
		Doc:     "ITTAGE baseline (~64 KB, 8 tagged tables)",
		Default: func() any { return ittage.DefaultConfig() },
		New: func(cfg any) (Indirect, error) {
			c, err := cfgAs[ittage.Config]("ittage", cfg)
			if err != nil {
				return nil, err
			}
			return ittage.New(c), nil
		},
	})
	Register(Entry{
		Name:    "btb",
		Doc:     "baseline last-taken branch target buffer (32K entries)",
		Default: func() any { return btb.Default32K() },
		New:     newBTB("btb"),
	})
	Register(Entry{
		Name: "btb2bit",
		Doc:  "Calder & Grunwald 2-bit hysteresis BTB variant",
		Default: func() any {
			cfg := btb.Default32K()
			cfg.Hysteresis = true
			return cfg
		},
		New: newBTB("btb2bit"),
	})
	Register(Entry{
		Name:    "targetcache",
		Doc:     "Chang et al. target cache (target-history indexed)",
		Default: func() any { return targetcache.DefaultConfig() },
		New: func(cfg any) (Indirect, error) {
			c, err := cfgAs[targetcache.Config]("targetcache", cfg)
			if err != nil {
				return nil, err
			}
			return targetcache.New(c), nil
		},
	})
	Register(Entry{
		Name:    "cascaded",
		Doc:     "Driesen & Hölzle two-stage cascaded predictor",
		Default: func() any { return cascaded.DefaultConfig() },
		New: func(cfg any) (Indirect, error) {
			c, err := cfgAs[cascaded.Config]("cascaded", cfg)
			if err != nil {
				return nil, err
			}
			return cascaded.New(c), nil
		},
	})
	Register(Entry{
		Name:    "vpc",
		Doc:     "VPC (Kim et al.): virtual PCs over the shared conditional predictor",
		Default: func() any { return vpc.DefaultConfig() },
		NewBound: func(cfg any, cp cond.Predictor) (Indirect, error) {
			c, err := cfgAs[vpc.Config]("vpc", cfg)
			if err != nil {
				return nil, err
			}
			hp, ok := cp.(*cond.HashedPerceptron)
			if !ok {
				return nil, fmt.Errorf("predictor: vpc requires a hashed-perceptron conditional predictor, got %T", cp)
			}
			return vpc.New(c, hp), nil
		},
	})
	Register(Entry{
		Name:    "combined",
		Doc:     "§6 consolidated BLBP: one structure for conditionals and targets",
		Default: func() any { return core.DefaultConfig() },
		NewProvider: func(cfg any) (cond.Predictor, Indirect, error) {
			c, err := cfgAs[core.Config]("combined", cfg)
			if err != nil {
				return nil, nil, err
			}
			p := combined.New(c)
			return p, p.Indirect(), nil
		},
	})
}

func newBTB(name string) func(cfg any) (Indirect, error) {
	return func(cfg any) (Indirect, error) {
		c, err := cfgAs[btb.Config](name, cfg)
		if err != nil {
			return nil, err
		}
		return btb.NewIndirect(c), nil
	}
}
