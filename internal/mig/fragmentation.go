package mig

// Fragmentation metrics (§4): free compute that no single free slice
// can deliver. A function needing g GPCs monolithically is blocked
// whenever every free slice is smaller than g, even if the summed free
// compute dwarfs g — the situation of Figs. 1 and 4.

// FragmentationIndex returns 1 − (largest free slice's GPCs ÷ total
// free GPCs) over the given GPUs: 0 means all free compute is
// reachable through one slice; values near 1 mean the free compute is
// shattered into small slices. No free compute returns 0.
func FragmentationIndex(gpus []*GPU) float64 {
	totalFree := 0
	largest := 0
	for _, g := range gpus {
		for _, s := range g.Slices {
			if !s.Placeable() {
				continue
			}
			totalFree += s.Type.GPCs()
			if s.Type.GPCs() > largest {
				largest = s.Type.GPCs()
			}
		}
	}
	if totalFree == 0 {
		return 0
	}
	return 1 - float64(largest)/float64(totalFree)
}
