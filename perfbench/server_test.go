package main

import (
	"os"
	"testing"
)

func TestParseStatCPU(t *testing.T) {
	stat, err := os.ReadFile("testdata/proc_stat")
	if err != nil {
		t.Fatal(err)
	}
	// The command name holds a space and parentheses; utime is 1234 and
	// stime 567 ticks.
	ticks, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if ticks != 1234+567 {
		t.Errorf("utime+stime = %d ticks, want %d", ticks, 1234+567)
	}
	for _, bad := range []string{"", "4242 dqserve S 1", "4242 (dqserve) S 1 2 3", "4242 (dqserve) S 1 4242 4242 0 -1 4194560 27145 0 12 0 x 567"} {
		if _, err := parseStatCPU([]byte(bad)); err == nil {
			t.Errorf("parsed %q", bad)
		}
	}
}

func TestParseStatusKB(t *testing.T) {
	status, err := os.ReadFile("testdata/proc_status")
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]int64{"VmHWM": 51420, "VmRSS": 49876, "VmPeak": 1445824} {
		got, err := parseStatusKB(status, key)
		if err != nil || got != want {
			t.Errorf("%s = %d, %v; want %d kB", key, got, err, want)
		}
	}
	if _, err := parseStatusKB(status, "VmSwap"); err == nil {
		t.Error("found a VmSwap line the fixture does not have")
	}
	if _, err := parseStatusKB([]byte("VmHWM:\t51420 pages\n"), "VmHWM"); err == nil {
		t.Error("accepted a value not in kB")
	}
}

func TestProcReadersOnThisProcess(t *testing.T) {
	if _, err := processCPU(os.Getpid()); err != nil {
		t.Fatal(err)
	}
	rss, err := peakRSS(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if rss <= 0 {
		t.Errorf("peak RSS %d bytes", rss)
	}
}
