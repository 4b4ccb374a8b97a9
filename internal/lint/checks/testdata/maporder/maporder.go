// Package maporder is the maporder analyzer corpus: order-sensitive and
// order-free folds over map iteration, plus the blessed collect-then-
// sort and sorted-key idioms.
package maporder

import (
	"fmt"
	"sort"
	"strings"

	"mkos/internal/telemetry"
)

func badFloatFold(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want "floating-point accumulation"
	}
	return sum
}

func badStringFold(m map[string]string) string {
	var out string
	for _, v := range m {
		out += v // want "string concatenation while ranging over a map"
	}
	return out
}

func badAppend(m map[string]int) []int {
	var vals []int
	for _, v := range m {
		vals = append(vals, v) // want "append to vals while ranging over a map"
	}
	return vals
}

func badOutput(m map[string]int) {
	for k := range m {
		fmt.Println(k) // want "fmt\\.Println inside a map range emits output"
	}
}

func badBuilder(m map[string]int) string {
	var b strings.Builder
	for k := range m {
		b.WriteString(k) // want "WriteString on a builder inside a map range"
	}
	return b.String()
}

func badTelemetry(m map[string]float64, sink *telemetry.Sink) {
	h := sink.Histogram("corpus.hist", nil)
	for _, v := range m {
		h.Observe(v) // want "telemetry call Observe inside a map range"
	}
}

// goodCollectThenSort is the canonical sortedKeys body: the append is
// order-dependent, the sort right after makes the result order-free.
func goodCollectThenSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// goodSortedKeyFold ranges over a slice, not the map — never flagged.
func goodSortedKeyFold(m map[string]float64) float64 {
	var sum float64
	for _, k := range goodCollectThenSort(intKeys(m)) {
		sum += m[k]
	}
	return sum
}

func intKeys(m map[string]float64) map[string]int {
	out := make(map[string]int, len(m))
	for k := range m {
		out[k] = len(k) // map-to-map writes are order-free
	}
	return out
}

// goodIntFold: integer addition commutes; the fold is order-free.
func goodIntFold(m map[string]int) int {
	var n int
	for _, v := range m {
		n += v
	}
	return n
}

func allowedFold(m map[string]float64) float64 {
	var sum float64
	//simlint:allow maporder — corpus example: diagnostic-only estimate where bit-reproducibility is waived
	for _, v := range m {
		sum += v
	}
	return sum
}
