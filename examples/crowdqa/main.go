// Crowdsourced data enrichment: the paper's introduction motivates truth
// discovery with crowdsourcing platforms where workers answer questions
// about many items and each worker's reliability depends on the *kind* of
// question — exactly the structurally correlated setting of Problem 2.
//
// This example simulates 40 workers enriching a catalogue of 150 products
// with six attributes in two correlated groups: visual facts anyone can
// read off a photo (brand, colour, material) and technical facts that
// need domain knowledge (battery-mah, weight-g, wattage). A quarter of the
// workers are visual experts, a quarter are hardware-savvy spec experts,
// and the rest are novices who guess. Wrong answers tend to land on a popular misconception.
//
// A single Accu run estimates one reliability per worker, which averages
// the two regimes away; TD-AC recovers the visual/technical split and
// lets Accu weight each worker where it is actually good.
//
// Run with:
//
//	go run ./examples/crowdqa
package main

import (
	"fmt"
	"log"
	"math/rand"

	"tdac"
)

const (
	products       = 150
	workers        = 40
	coverage       = 0.80
	expertAccuracy = 0.90
	weakAccuracy   = 0.20
	distractorProb = 0.60
	wrongPool      = 25
)

var attrGroups = [][]string{
	{"brand", "colour", "material"},
	{"battery-mah", "weight-g", "wattage"},
}

func main() {
	rng := rand.New(rand.NewSource(7))
	b := tdac.NewBuilder("crowd-enrichment")

	var attrs []string
	groupOf := map[string]int{}
	for gi, g := range attrGroups {
		for _, a := range g {
			attrs = append(attrs, a)
			groupOf[a] = gi
		}
	}

	for p := 0; p < products; p++ {
		product := fmt.Sprintf("product-%03d", p+1)
		for _, attr := range attrs {
			truth := fmt.Sprintf("%s-%d", attr, rng.Intn(500))
			distractor := fmt.Sprintf("%s-myth-%d", attr, rng.Intn(500))
			b.Truth(product, attr, truth)
			for w := 0; w < workers; w++ {
				if rng.Float64() >= coverage {
					continue
				}
				acc := weakAccuracy
				// Workers 0,4,8,… are visual experts, 1,5,9,… are spec
				// experts; the other half are generalist novices.
				if w%4 == groupOf[attr] {
					acc = expertAccuracy
				}
				answer := truth
				if rng.Float64() >= acc {
					if rng.Float64() < distractorProb {
						answer = distractor
					} else {
						answer = fmt.Sprintf("%s-wrong-%d", attr, rng.Intn(wrongPool))
					}
				}
				b.Claim(fmt.Sprintf("worker-%02d", w+1), product, attr, answer)
			}
		}
	}

	ds, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(tdac.ComputeStats(ds))

	accu, err := tdac.Run(ds, "Accu")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nAccu alone:      %s (%d iterations, %s)\n",
		tdac.Evaluate(ds, accu.Truth), accu.Iterations, accu.Runtime.Round(0))

	res, err := tdac.Discover(ds, tdac.WithBase("Accu"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TD-AC (F=Accu):  %s (%s)\n", tdac.Evaluate(ds, res.Truth), res.Runtime.Round(0))

	fmt.Printf("\nTD-AC found %d attribute clusters (silhouette %.3f):\n", len(res.Partition), res.Silhouette)
	for gi, group := range res.Partition {
		names := make([]string, len(group))
		for i, a := range group {
			names[i] = ds.AttrName(a)
		}
		fmt.Printf("  cluster %d: %v\n", gi+1, names)
	}

	// Show why it works: global Accu flattens every worker to a similar
	// mid trust, hiding who is good at what.
	fmt.Println("\nworker trust (global Accu), first 8 workers:")
	for w := 0; w < 8; w++ {
		kind := "novice"
		switch w % 4 {
		case 0:
			kind = "visual-expert"
		case 1:
			kind = "spec-expert"
		}
		fmt.Printf("  worker-%02d (%-13s): %.3f\n", w+1, kind, accu.Trust[w])
	}
}
