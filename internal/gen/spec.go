package gen

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/graph"
)

// ErrBadSpec reports a graph spec that does not parse, names an unknown
// scheme or key, or gives an argument outside its generator's domain.
var ErrBadSpec = errors.New("bad graph spec")

// Spec is a parsed graph spec whose every argument lies in its
// generator's domain: the one name of every input graph the tools build.
// One scheme per generator, defaults in brackets:
//
//	kron:scale=S[,edgefactor=16][,seed=42]   Graph500 Kronecker graph, 2^S vertices (Kronecker)
//	uniform:n=N[,degree=16][,seed=42]        Erdős–Rényi random graph (Uniform)
//	social:n=N[,degree=5][,seed=42]          LDBC-like social network (LDBC)
//	powerlaw:n=N[,seed=42]                   twitter-like power-law graph (PowerLaw)
//	web:n=N[,degree=16][,seed=42]            uk-2005-like web crawl (Web)
//	collab:n=N[,degree=16][,seed=42]         hollywood-like union of casts (Collaboration)
//	file:PATH                                binary CSR that Validate accepts, or a .txt/.el edge list
//
// Each generator names its own domain (KroneckerParams.check, checkDrawn),
// and every integer is non-negative. Only ParseSpec makes a Spec.
type Spec struct {
	scheme string
	path   string   // file: only
	args   []uint64 // one per key of the scheme, in its order; all but a seed fit an int
}

// schemes holds each generator's keys and their defaults, its domain
// check, which allocates nothing, and the build. The first key, scale or
// n, has no default: a spec must give it.
var schemes = map[string]struct {
	keys  []string
	defs  []uint64
	check func(a []uint64) error
	build func(a []uint64) (*graph.Graph, error)
}{
	"kron": {[]string{"scale", "edgefactor", "seed"}, []uint64{0, 16, 42},
		func(a []uint64) error { return kronParams(a).check() },
		func(a []uint64) (*graph.Graph, error) { return Kronecker(kronParams(a)), nil }},
	"uniform": {[]string{"n", "degree", "seed"}, []uint64{0, 16, 42}, checkDrawnArgs,
		func(a []uint64) (*graph.Graph, error) { return Uniform(int(a[0]), int(a[1]), a[2]), nil }},
	"social": {[]string{"n", "degree", "seed"}, []uint64{0, 5, 42}, checkDrawnArgs,
		func(a []uint64) (*graph.Graph, error) { return LDBC(int(a[0]), int(a[1]), a[2]), nil }},
	"powerlaw": {[]string{"n", "seed"}, []uint64{0, 42},
		func(a []uint64) error { return checkDrawn(int(a[0]), minPowerLawDegree, 0) },
		func(a []uint64) (*graph.Graph, error) { return powerLaw(int(a[0]), a[1], graph.MaxEndpoints) }},
	"web": {[]string{"n", "degree", "seed"}, []uint64{0, 16, 42}, checkDrawnArgs,
		func(a []uint64) (*graph.Graph, error) { return Web(int(a[0]), int(a[1]), a[2]), nil }},
	"collab": {[]string{"n", "degree", "seed"}, []uint64{0, 16, 42},
		func(a []uint64) error { return checkDrawn(int(a[0]), int(a[1]), collabOvershoot) },
		func(a []uint64) (*graph.Graph, error) { return Collaboration(int(a[0]), int(a[1]), a[2]), nil }},
}

func kronParams(a []uint64) KroneckerParams {
	return KroneckerParams{Scale: int(a[0]), EdgeFactor: int(a[1]), Seed: a[2]}
}

func checkDrawnArgs(a []uint64) error { return checkDrawn(int(a[0]), int(a[1]), 0) }

// ParseSpec parses and checks s, reading no file and allocating nothing
// the graph needs; every error is an ErrBadSpec.
func ParseSpec(s string) (Spec, error) {
	name, rest, ok := strings.Cut(s, ":")
	sc, known := schemes[name]
	switch {
	case !ok:
		return Spec{}, badSpec(s, "want SCHEME:ARGS")
	case name == "file" && rest != "":
		return Spec{scheme: name, path: rest}, nil
	case name == "file":
		return Spec{}, badSpec(s, "file needs a path")
	case !known:
		return Spec{}, badSpec(s, "unknown scheme %q (kron, uniform, social, powerlaw, web, collab, file)", name)
	}
	var pairs []string
	if rest != "" {
		pairs = strings.Split(rest, ",")
	}
	args, given := slices.Clone(sc.defs), 0 // given bit i: key i given
	for _, pair := range pairs {
		k, v, ok := strings.Cut(pair, "=")
		i := slices.Index(sc.keys, k)
		switch {
		case !ok:
			return Spec{}, badSpec(s, "malformed argument %q (want KEY=VALUE)", pair)
		case i < 0:
			return Spec{}, badSpec(s, "unknown key %q for %s", k, name)
		case given&(1<<i) != 0:
			return Spec{}, badSpec(s, "key %q given twice", k)
		}
		given |= 1 << i
		width := 63 // all but a seed must fit an int
		if k == "seed" {
			width = 64
		}
		var err error
		if args[i], err = strconv.ParseUint(v, 10, width); err != nil { //bfs:singlewriter args is this call's own, not a bitset
			return Spec{}, badSpec(s, "%s=%s is not a non-negative %d-bit integer", k, v, width)
		}
	}
	if given&1 == 0 {
		return Spec{}, badSpec(s, "%s needs %s", name, sc.keys[0])
	}
	if err := sc.check(args); err != nil {
		return Spec{}, fmt.Errorf("%w %q: %w", ErrBadSpec, s, err)
	}
	return Spec{scheme: name, args: args}, nil
}

func badSpec(s, format string, a ...any) error {
	return fmt.Errorf("%w %q: %s", ErrBadSpec, s, fmt.Sprintf(format, a...))
}

// String is the spec in canonical form, every key of its scheme spelled
// out in order: specs that differ only in spelling, such as a default
// left out, have the same String and build the same graph.
func (s Spec) String() string {
	if s.scheme == "file" {
		return "file:" + s.path
	}
	var b strings.Builder
	for i, k := range schemes[s.scheme].keys {
		fmt.Fprintf(&b, ",%s=%d", k, s.args[i])
	}
	return s.scheme + ":" + b.String()[1:]
}

// Build builds the graph s names. A powerlaw spec whose sampled degrees
// sum past one CSR build is an ErrBadSpec, found before the stubs are
// made. A file that does not load, or a binary CSR that Validate refuses
// (the kernels need the symmetric, loop-free CSR it proves), is an error
// naming the path.
func (s Spec) Build() (*graph.Graph, error) {
	if s.scheme != "file" {
		g, err := schemes[s.scheme].build(s.args)
		if err != nil {
			return nil, fmt.Errorf("%w %q: %w", ErrBadSpec, s, err)
		}
		return g, nil
	}
	var g *graph.Graph
	var err error
	if strings.HasSuffix(s.path, ".txt") || strings.HasSuffix(s.path, ".el") {
		var f *os.File
		if f, err = os.Open(s.path); err == nil {
			g, _, err = graph.LoadEdgeList(f)
			f.Close()
		}
	} else if g, err = graph.LoadFile(s.path); err == nil {
		err = g.Validate()
	}
	if err != nil {
		return nil, fmt.Errorf("file %q: %w", s.path, err)
	}
	return g, nil
}

// Build parses, checks and builds spec.
func Build(spec string) (*graph.Graph, error) {
	s, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return s.Build()
}
