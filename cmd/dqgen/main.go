// Command dqgen generates random decentralized-query instances as JSON
// documents consumable by dqopt, dqsim, dqchoreo (wall-clock runs on the
// executor) and dqserve's /v1/optimize.
//
// Usage:
//
//	dqgen -n 10 -seed 7 -topology clustered -heterogeneity 16 -o query.json
package main

import (
	"flag"
	"fmt"
	"os"

	"serviceordering/internal/gen"
	"serviceordering/internal/model"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dqgen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("dqgen", flag.ContinueOnError)
	var (
		n          = fs.Int("n", 8, "number of services")
		seed       = fs.Int64("seed", 1, "generation seed")
		topology   = fs.String("topology", "random", "transfer topology: random|uniform|euclidean|clustered")
		hetero     = fs.Float64("heterogeneity", 8, "max/min transfer cost ratio")
		costMax    = fs.Float64("cost-max", 2, "max per-tuple processing cost")
		selMin     = fs.Float64("sel-min", 0.1, "min selectivity")
		selMax     = fs.Float64("sel-max", 1.0, "max selectivity")
		prolif     = fs.Float64("proliferative", 0, "fraction of services with selectivity > 1")
		withSource = fs.Bool("source", false, "add a source transfer stage")
		withSink   = fs.Bool("sink", false, "add sink transfer costs")
		precedence = fs.Int("precedence", 0, "number of random precedence constraints")
		out        = fs.String("o", "", "output file (default stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	p := gen.Default(*n, *seed)
	p.Heterogeneity = *hetero
	p.CostMax = *costMax
	p.SelMin, p.SelMax = *selMin, *selMax
	p.ProliferativeFraction = *prolif
	p.WithSource = *withSource
	p.WithSink = *withSink
	p.PrecedenceEdges = *precedence
	switch *topology {
	case "random":
		p.Topology = gen.TopologyRandom
	case "uniform":
		p.Topology = gen.TopologyUniform
	case "euclidean":
		p.Topology = gen.TopologyEuclidean
	case "clustered":
		p.Topology = gen.TopologyClustered
	default:
		return fmt.Errorf("unknown topology %q", *topology)
	}

	q, err := p.Generate()
	if err != nil {
		return err
	}
	inst := &model.Instance{
		Comment: fmt.Sprintf("dqgen n=%d seed=%d topology=%s heterogeneity=%g", *n, *seed, *topology, *hetero),
		Query:   q,
	}
	if *out == "" {
		return model.EncodeInstance(os.Stdout, inst)
	}
	if err := model.SaveInstance(*out, inst); err != nil {
		return err
	}
	fmt.Printf("wrote %d-service instance to %s\n", q.N(), *out)
	return nil
}
