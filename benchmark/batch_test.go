package main

import (
	"strings"
	"testing"
)

const committedTable = `== fig5b: Slowdown vs added overhead (32 nodes) ==
Δo(µs)    Radix  EM3D(write)  NOW-sort
--------  -----  -----------  --------
0.0       1.00   1.00         1.00
1.0       1.45   1.16         1.00
5.0       6.65   1.98         1.00
100.0     78.70  23.24        1.03
note: slowdown relative to the unmodified machine; 32 nodes, scale 0.003906
note: N/A: exceeded the livelock time limit (the paper's Barnes behavior)
`

// quickTable is what the quick plan renders: a subset of the committed
// rows, with column widths of its own.
const quickTable = `== fig5b: Slowdown vs added overhead (32 nodes) ==
Δo(µs)  Radix  EM3D(write)  NOW-sort
------  -----  -----------  --------
0.0     1.00   1.00         1.00
5.0     6.65   1.98         1.00
100.0   78.70  23.24        1.03
note: slowdown relative to the unmodified machine; 32 nodes, scale 0.003906
`

func TestMatchRows(t *testing.T) {
	for _, tc := range []struct {
		name          string
		got           string
		checked, diff int
		wantErr       bool
	}{
		{"quick rows equal the committed rows of the same Δo", quickTable, 12, 0, false},
		{"a flipped cell", strings.Replace(quickTable, "23.24", "23.25", 1), 12, 1, false},
		{"a livelocked cell", strings.Replace(quickTable, "78.70", "N/A  ", 1), 12, 1, false},
		{"a row the committed table does not have", strings.Replace(quickTable, "5.0 ", "7.0 ", 1), 12, 4, false},
		{"an extra column", strings.Replace(quickTable, "1.03", "1.03  9.99", 1), 13, 1, false},
		{"no rows at all", "== fig5b ==\n", 0, 0, true},
	} {
		checked, diff, err := matchRows(tc.got, committedTable)
		if (err != nil) != tc.wantErr || checked != tc.checked || diff != tc.diff {
			t.Errorf("%s: matchRows = %d checked, %d differ, err %v; want %d, %d, err=%v",
				tc.name, checked, diff, err, tc.checked, tc.diff, tc.wantErr)
		}
	}
}

func TestMatchGolden(t *testing.T) {
	golden := []byte(`{"seed":1,"procs":10000,"scale":0.00390625,"kernels":{
		"scale-radix":{"elapsed_ns":3,"messages":30,"events":60,"switches":0},
		"scale-em3d":{"elapsed_ns":2,"messages":20,"events":40,"switches":0},
		"scale-pray":{"elapsed_ns":1,"messages":10,"events":20,"switches":0}}}`)
	same := `{"scale-em3d":{"elapsed_ns":2,"messages":20,"events":40,"switches":0},` +
		`"scale-pray":{"elapsed_ns":1,"messages":10,"events":20,"switches":0},` +
		`"scale-radix":{"elapsed_ns":3,"messages":30,"events":60,"switches":0}}`
	for _, tc := range []struct {
		name string
		got  string
		diff int
	}{
		{"equal", same, 0},
		{"one more event", strings.Replace(same, `"events":40`, `"events":41`, 1), 1},
		{"a goroutine switch on the goroutine-free runtime", strings.Replace(same, `"switches":0}}`, `"switches":7}}`, 1), 1},
		{"another virtual makespan everywhere", strings.ReplaceAll(same, `"elapsed_ns":`, `"elapsed_ns":9`), 3},
		{"a kernel missing", strings.Replace(same, `"scale-pray"`, `"scale-other"`, 1), 1},
	} {
		checked, diff, err := matchGolden(tc.got, golden)
		if err != nil || checked != 3 || diff != tc.diff {
			t.Errorf("%s: matchGolden = %d checked, %d differ, err %v; want 3, %d", tc.name, checked, diff, err, tc.diff)
		}
	}
	if _, _, err := matchGolden(same, []byte("{")); err == nil {
		t.Error("a torn golden file must be an error")
	}
}
