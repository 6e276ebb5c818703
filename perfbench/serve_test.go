package main

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestBalancedAlphasEqualAndDeterministic(t *testing.T) {
	for _, names := range [][]string{
		{"http://127.0.0.1:40001", "http://127.0.0.1:40002"},
		{"http://127.0.0.1:51234", "http://127.0.0.1:36789"},
		{"http://127.0.0.1:9", "http://127.0.0.1:65535"},
	} {
		got, err := balancedAlphas(names, classesPerReplica)
		if err != nil {
			t.Fatalf("%v: %v", names, err)
		}
		again, _ := balancedAlphas(names, classesPerReplica)
		reversed, _ := balancedAlphas([]string{names[1], names[0]}, classesPerReplica)
		if !reflect.DeepEqual(got, again) || !reflect.DeepEqual(got, reversed) {
			t.Errorf("%v: picks %v, then %v, reversed %v", names, got, again, reversed)
		}
		// Every replica owns exactly classesPerReplica of the classes on
		// the ring the router builds.
		ring := replicaRing(names)
		owned := map[string]int{}
		for _, a := range got {
			key, err := saxpyParams(a, 0).Key()
			if err != nil {
				t.Fatal(err)
			}
			owned[ring.Lookup(key)]++
		}
		for _, n := range names {
			if owned[n] != classesPerReplica {
				t.Errorf("%v: replica %s owns %d classes, want %d", names, n, owned[n], classesPerReplica)
			}
		}
	}
}

func TestPhaseJobsEqualPerClass(t *testing.T) {
	alphas := []float64{0.5, 0.25, 0.75, 0.125}
	seeds := []int64{1, 2, 3}
	jobs := phaseJobs(rand.New(rand.NewSource(1)), 48, alphas, seeds, nil)
	if len(jobs) != 48 {
		t.Fatalf("%d jobs, want 48", len(jobs))
	}
	perClass := map[float64]int{}
	for i, j := range jobs {
		perClass[j.params.Alpha]++
		// Each block of len(alphas) jobs holds every class once.
		if (i+1)%len(alphas) == 0 {
			for _, a := range alphas {
				if perClass[a] != (i+1)/len(alphas) {
					t.Fatalf("after %d jobs class %g has %d", i+1, a, perClass[a])
				}
			}
		}
	}
}

func TestOpenLoopAccounting(t *testing.T) {
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	r := openResult{scheduled: ms(100), launched: ms(103), done: ms(130)}
	// Latency runs from the scheduled arrival, so generator lateness
	// counts against the job.
	if got := r.latencyMS(); got != 30 {
		t.Errorf("latency = %v, want 30", got)
	}
	if got := r.lateMS(); got != 3 {
		t.Errorf("lateness = %v, want 3", got)
	}
	r.err = errors.New("refused")
	if got := r.latencyMS(); !math.IsInf(got, 1) {
		t.Errorf("failed job latency = %v, want +Inf", got)
	}

	offs := poissonOffsets(rand.New(rand.NewSource(3)), 2000, 50)
	again := poissonOffsets(rand.New(rand.NewSource(3)), 2000, 50)
	if !reflect.DeepEqual(offs, again) {
		t.Error("arrival schedule is not a function of the seed")
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] < offs[i-1] {
			t.Fatalf("arrival %d before arrival %d", i, i-1)
		}
	}
	if rate := float64(len(offs)) / offs[len(offs)-1].Seconds(); rate < 45 || rate > 55 {
		t.Errorf("mean rate %v, want about 50", rate)
	}
}
