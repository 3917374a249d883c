package harness

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/clos"
	"repro/internal/fabric"
	"repro/internal/myrinet"
)

// FabricPreset resolves a backend name — the value of the benches' shared
// -fabric flag — to its preset. The empty string means the default Myrinet
// backend, so flag plumbing can pass the flag through unconditionally.
func FabricPreset(name string) (fabric.Config, error) {
	switch name {
	case "", "myrinet":
		return myrinet.Default(), nil
	case "clos":
		return clos.Default(), nil
	}
	return fabric.Config{}, fmt.Errorf("unknown fabric %q (want myrinet or clos)", name)
}

// FabricNames lists the selectable backends, for usage strings.
func FabricNames() string { return "myrinet, clos" }

// ParseInts parses a comma-separated integer list flag, such as the
// benches' -nodes, rejecting any entry below min; noun names an entry in
// the error ("bad cluster size \"1\" (want integers >= 2)").
func ParseInts(s string, min int, noun string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < min {
			return nil, fmt.Errorf("bad %s %q (want integers >= %d)", noun, part, min)
		}
		out = append(out, n)
	}
	return out, nil
}
