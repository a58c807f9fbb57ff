package core

import "errors"

// CheckEngineFlags rejects the engine-knob flag combinations that
// several CLIs share, instead of silently ignoring the losing flag.
// set holds the flags passed on the command line (flag.FlagSet.Visit,
// not defaults), so a rule can only fire on a flag the calling CLI
// registers. census reports that the resolved engine is the aggregate
// census engine and backend names the resolved per-node backend.
// censusKnobs exempts -law-quant and -census-tol when they reach a
// census run whatever the engine (the experiments CLI's sweep-driven
// E21/E22 with no explicit -engine). The first matching rule wins.
func CheckEngineFlags(set map[string]bool, census, censusKnobs bool, backend string) error {
	switch {
	case set["backend"] && census:
		return errors.New("-backend has no effect with -engine census (the aggregate engine has no per-node sampling to select); drop -backend or pick a per-node engine")
	case set["threads"] && census:
		return errors.New("-threads has no effect with -engine census (the aggregate engine has no per-node sampling to parallelize); drop -threads or pick a per-node engine (trial parallelism is -workers where available)")
	case set["threads"] && backend != "parallel":
		return errors.New("-threads only applies to -backend parallel; add -backend parallel or drop -threads")
	case set["law-quant"] && !census && !censusKnobs:
		return errors.New("-law-quant applies to the census engine only (per-node engines evaluate no aggregate Stage-2 law); add -engine census or drop the flag")
	case set["census-tol"] && !census && !censusKnobs:
		return errors.New("-census-tol applies to the census engine only (per-node engines have no truncation tolerance); add -engine census or drop the flag")
	}
	return nil
}
