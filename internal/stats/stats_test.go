package stats

import (
	"strings"
	"testing"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("empty mean should be 0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
}

func TestTable(t *testing.T) {
	out := Table([]string{"n", "value"}, [][]string{{"10", "1.5"}, {"100", "2.25"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "n  ") {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("rule = %q", lines[1])
	}
	// Alignment: "100" occupies the same columns as "n" header width 3.
	if !strings.HasPrefix(lines[3], "100") {
		t.Errorf("row = %q", lines[3])
	}
}

func TestWriteCSV(t *testing.T) {
	var b strings.Builder
	err := WriteCSV(&b, []string{"a", "b"}, [][]string{{"1", "2"}, {"3", "4"}})
	if err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,2\n3,4\n"
	if b.String() != want {
		t.Errorf("csv = %q", b.String())
	}
}
