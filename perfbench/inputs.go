package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"tdac"
	"tdac/internal/exam"
	"tdac/internal/synth"
)

// input is one generated dataset in the form the programs receive it:
// claims and ground-truth CSV bytes, exactly what tdac-gen writes.
type input struct {
	Name   string // registry name, e.g. "ds1-0"
	Claims []byte
	Truth  []byte
}

// paperDS returns variants copies of each of the paper's DS1, DS2 and
// DS3 at full scale (1000 objects, 10 sources, 6 attributes, 60k
// claims), their generator seeds derived from the workload seed.
func paperDS(seed int64, variants int) ([]input, error) {
	var out []input
	for v := 0; v < variants; v++ {
		for i, cfg := range []synth.Config{synth.DS1(), synth.DS2(), synth.DS3()} {
			cfg.Seed += seed*7919 + int64(v)*104729
			g, err := synth.Generate(cfg)
			if err != nil {
				return nil, err
			}
			in, err := encode(fmt.Sprintf("ds%d-%d", i+1, v), g.Dataset)
			if err != nil {
				return nil, err
			}
			out = append(out, in)
		}
	}
	return out, nil
}

// paperExam returns variants copies of the paper's Exam at 124
// questions: 248 students, the semi-synthetic fill with a false-answer
// range of 25 (the dataset tdacbench calls exam124-r25, 30,752 claims).
func paperExam(seed int64, variants int) ([]input, error) {
	var out []input
	for v := 0; v < variants; v++ {
		d, err := exam.Generate(exam.Config{Attrs: 124, Range: 25, Fill: true,
			Seed: 9000 + seed*7919 + int64(v)*104729})
		if err != nil {
			return nil, err
		}
		in, err := encode(fmt.Sprintf("exam124-%d", v), d)
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

func encode(name string, d *tdac.Dataset) (input, error) {
	var c, t bytes.Buffer
	if err := tdac.WriteClaimsCSV(&c, d); err != nil {
		return input{}, err
	}
	if err := tdac.WriteTruthCSV(&t, d); err != nil {
		return input{}, err
	}
	return input{Name: name, Claims: c.Bytes(), Truth: t.Bytes()}, nil
}

// load parses an input the way a library or CLI caller does.
func (in input) load() (*tdac.Dataset, error) {
	d, err := tdac.ReadClaimsCSV(bytes.NewReader(in.Claims), in.Name)
	if err != nil {
		return nil, fmt.Errorf("%s claims: %w", in.Name, err)
	}
	if err := tdac.ReadTruthCSV(bytes.NewReader(in.Truth), d); err != nil {
		return nil, fmt.Errorf("%s truth: %w", in.Name, err)
	}
	return d, nil
}

// write stores the input's CSV files in dir and returns their paths.
func (in input) write(dir string) (claims, truth string, err error) {
	claims = filepath.Join(dir, in.Name+"-claims.csv")
	truth = filepath.Join(dir, in.Name+"-truth.csv")
	if err := os.WriteFile(claims, in.Claims, 0o644); err != nil {
		return "", "", err
	}
	return claims, truth, os.WriteFile(truth, in.Truth, 0o644)
}
