// Choreography: execute a query plan as the paper's decentralized
// pipeline on the production executor — one stage per service, tuple
// blocks streamed from stage to stage, every service call crossing a
// loopback HTTP wire and sleeping its modeled cost. The optimized ordering
// visibly outperforms a poor one.
//
//	go run ./examples/choreography
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"serviceordering"
)

func main() {
	q, err := serviceordering.Generate(serviceordering.DefaultGenParams(6, 2024))
	if err != nil {
		log.Fatal(err)
	}

	res, err := serviceordering.Optimize(q)
	if err != nil {
		log.Fatal(err)
	}
	// A deliberately bad plan: the optimum reversed.
	bad := make(serviceordering.Plan, len(res.Plan))
	for i, s := range res.Plan {
		bad[len(res.Plan)-1-i] = s
	}

	cfg := serviceordering.WallClockConfig{
		Tuples:      120,
		BlockSize:   8,
		QueueBlocks: 4,
		// One cost unit = 1ms keeps OS timer quantization small relative
		// to the modeled service times.
		UnitDuration: time.Millisecond,
		HTTP:         true,
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	fmt.Println("running both plans over loopback HTTP (120 tuples each)...")
	for _, entry := range []struct {
		label string
		plan  serviceordering.Plan
	}{
		{"optimal", res.Plan},
		{"reversed", bad},
	} {
		rep, rerr := serviceordering.Execute(ctx, q, entry.plan, cfg)
		if rerr != nil {
			log.Fatal(rerr)
		}
		fmt.Printf("\n%-8s %s\n", entry.label, entry.plan.Render(q))
		fmt.Printf("  modeled cost:   %.3f units/tuple\n", q.Cost(entry.plan))
		fmt.Printf("  wall makespan:  %v (%d tuples out)\n", rep.Makespan.Round(time.Millisecond), rep.TuplesOut)
		fmt.Printf("  per tuple:      measured %v, predicted %v\n",
			rep.MeasuredPeriod.Round(time.Microsecond), rep.PredictedPeriod.Round(time.Microsecond))
		for _, st := range rep.Stages {
			fmt.Printf("    %-8s in %-4d out %-4d busy %v\n",
				q.Services[st.Service].Name, st.TuplesIn, st.TuplesOut, st.Busy.Round(time.Millisecond))
		}
	}
}
