package core

import (
	"strings"
	"testing"
)

func TestCheckFlags(t *testing.T) {
	type flags = map[string]bool
	cases := []struct {
		name        string
		set         flags
		census      bool
		censusKnobs bool
		backend     string
		wantSub     string // "" = accept
	}{
		{name: "backend with census engine", set: flags{"backend": true}, census: true, backend: "parallel", wantSub: "-backend"},
		{name: "threads with census engine", set: flags{"threads": true}, census: true, wantSub: "-threads"},
		{name: "threads without parallel backend", set: flags{"threads": true}, backend: "batch", wantSub: "-backend parallel"},
		{name: "threads with parallel backend", set: flags{"threads": true, "backend": true}, backend: "parallel"},
		{name: "law-quant on a per-node engine", set: flags{"law-quant": true}, wantSub: "-law-quant"},
		{name: "law-quant reaches a sweep-driven census run", set: flags{"law-quant": true}, censusKnobs: true},
		{name: "law-quant with census engine", set: flags{"law-quant": true, "census-tol": true}, census: true},
		{name: "census-tol on a per-node engine", set: flags{"census-tol": true}, wantSub: "-census-tol"},
		// A rule fires only on a flag that was passed: the defaults of
		// a per-node run on the loop backend are no conflict.
		{name: "unset flags never fire", set: flags{"seed": true, "workers": true}, backend: "loop"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := CheckEngineFlags(c.set, c.census, c.censusKnobs, c.backend)
			if c.wantSub == "" {
				if err != nil {
					t.Fatalf("CheckEngineFlags = %v; want accept", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantSub) {
				t.Fatalf("CheckEngineFlags = %v; want rejection mentioning %q", err, c.wantSub)
			}
		})
	}
}
