// Stock quote integration: numeric conflicting values. Financial sites
// disagree on prices and fundamentals mostly by small numeric deviations
// (rounding, delayed feeds), so value similarity matters: 102.5 should
// support 102.4 rather than compete with it. This example compares Accu
// (exact matching) with AccuSim (numeric similarity) and then wraps the
// winner in TD-AC. It also demonstrates CSV round-tripping through the
// public API.
//
// Run with:
//
//	go run ./examples/stockquotes
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"strconv"

	"tdac"
)

const (
	symbols   = 80
	sites     = 30
	coverage  = 0.8
	staleProb = 0.55
)

var attrGroups = [][]string{
	{"open", "close", "high", "low"},
	{"eps", "pe-ratio", "dividend"},
}

func main() {
	rng := rand.New(rand.NewSource(21))
	b := tdac.NewBuilder("stock-quotes")

	var attrs []string
	groupOf := map[string]int{}
	for gi, g := range attrGroups {
		for _, a := range g {
			attrs = append(attrs, a)
			groupOf[a] = gi
		}
	}

	// Each site specialises in one attribute group.
	acc := make([][2]float64, sites)
	for s := range acc {
		expert := s % 2
		acc[s][expert] = 0.88 + 0.08*rng.Float64()
		acc[s][1-expert] = 0.35 + 0.15*rng.Float64()
	}

	for o := 0; o < symbols; o++ {
		symbol := fmt.Sprintf("SYM%03d", o)
		for _, attr := range attrs {
			truth := float64(rng.Intn(40000)+1000) / 100
			truthStr := strconv.FormatFloat(truth, 'f', 2, 64)
			stale := strconv.FormatFloat(truth*(1+0.05*(rng.Float64()-0.5)), 'f', 2, 64)
			b.Truth(symbol, attr, truthStr)
			for s := 0; s < sites; s++ {
				if rng.Float64() >= coverage {
					continue
				}
				v := truthStr
				if rng.Float64() >= acc[s][groupOf[attr]] {
					if rng.Float64() < staleProb {
						v = stale
					} else {
						// Idiosyncratic noise: a nearby but wrong number.
						v = strconv.FormatFloat(truth*(1+0.2*(rng.Float64()-0.5)), 'f', 2, 64)
					}
				}
				b.Claim(fmt.Sprintf("site-%02d", s+1), symbol, attr, v)
			}
		}
	}

	ds, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(tdac.ComputeStats(ds))

	// Round-trip through CSV to show the IO layer.
	var buf bytes.Buffer
	if err := tdac.WriteClaimsCSV(&buf, ds); err != nil {
		log.Fatal(err)
	}
	reloaded, err := tdac.ReadClaimsCSV(&buf, ds.Name)
	if err != nil {
		log.Fatal(err)
	}
	reloaded.Truth = ds.Truth
	fmt.Printf("CSV round-trip: %d claims preserved\n\n", reloaded.NumClaims())

	for _, alg := range []string{"Accu", "AccuSim"} {
		res, err := tdac.Run(reloaded, alg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %s\n", alg+":", tdac.Evaluate(reloaded, res.Truth))
	}

	res, err := tdac.Discover(reloaded, tdac.WithBase("AccuSim"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-22s %s\n", "TD-AC (F=AccuSim):", tdac.Evaluate(reloaded, res.Truth))
	fmt.Printf("\npartition %s (silhouette %.3f)\n", res.Partition, res.Silhouette)
	for gi, g := range res.Partition {
		names := make([]string, len(g))
		for i, a := range g {
			names[i] = reloaded.AttrName(a)
		}
		fmt.Printf("  cluster %d: %v\n", gi+1, names)
	}
}
