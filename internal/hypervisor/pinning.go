package hypervisor

import (
	"fmt"
	"sort"
)

// pinner tracks the explicit vCPU-to-physical-core assignment, so that
// "isolating problematic processing resources" is a concrete
// re-placement operation rather than a capacity decrement.
type pinner struct {
	oversub int
	// load[core] is the number of vCPUs pinned to the core.
	load map[int]int
	// byVM[vm] lists the cores hosting the VM's vCPUs (one entry per
	// vCPU; a core may repeat).
	byVM map[string][]int
}

func newPinner(oversub int) *pinner {
	return &pinner{oversub: oversub, load: make(map[int]int), byVM: make(map[string][]int)}
}

// pick returns the least-loaded usable core, or -1 when every usable
// core is at the oversubscription cap.
func (p *pinner) pick(usable []int) int {
	best := -1
	for _, c := range usable {
		if p.load[c] >= p.oversub {
			continue
		}
		if best == -1 || p.load[c] < p.load[best] {
			best = c
		}
	}
	return best
}

// assign pins n vCPUs of the VM onto the usable cores, least-loaded
// first. It either fully succeeds or leaves no partial assignment.
func (p *pinner) assign(vm string, n int, usable []int) error {
	var cores []int
	for i := 0; i < n; i++ {
		c := p.pick(usable)
		if c == -1 {
			// Roll back.
			for _, rc := range cores {
				p.load[rc]--
			}
			return fmt.Errorf("hypervisor: no core capacity for %d vCPUs of %q", n, vm)
		}
		p.load[c]++
		cores = append(cores, c)
	}
	p.byVM[vm] = append(p.byVM[vm], cores...)
	return nil
}

// release removes every pin of the VM.
func (p *pinner) release(vm string) {
	for _, c := range p.byVM[vm] {
		p.load[c]--
	}
	delete(p.byVM, vm)
}

// evictCore unpins every vCPU on the core and returns, per VM, how
// many vCPUs need a new home.
func (p *pinner) evictCore(core int) map[string]int {
	displaced := make(map[string]int)
	for vm, cores := range p.byVM {
		kept := cores[:0]
		for _, c := range cores {
			if c == core {
				displaced[vm]++
				p.load[core]--
				continue
			}
			kept = append(kept, c)
		}
		p.byVM[vm] = kept
	}
	return displaced
}

// Pinning returns the VM's vCPU core assignment, sorted.
func (h *Hypervisor) Pinning(vm string) []int {
	cores := append([]int(nil), h.pins.byVM[vm]...)
	sort.Ints(cores)
	return cores
}

// CoreLoad returns the number of vCPUs pinned to the core.
func (h *Hypervisor) CoreLoad(core int) int { return h.pins.load[core] }

// usableCores lists the non-isolated physical cores.
func (h *Hypervisor) usableCores() []int {
	var out []int
	for c := 0; c < h.cfg.Cores; c++ {
		if !h.isolatedCores[c] {
			out = append(out, c)
		}
	}
	return out
}

// rehomeDisplaced re-pins vCPUs evicted from an isolated core. VMs
// whose vCPUs cannot be re-homed are stopped (the cloud layer will
// reschedule them elsewhere); their names are returned.
func (h *Hypervisor) rehomeDisplaced(displaced map[string]int) []string {
	var stopped []string
	usable := h.usableCores()
	// Deterministic order.
	vms := make([]string, 0, len(displaced))
	for vm := range displaced {
		vms = append(vms, vm)
	}
	sort.Strings(vms)
	for _, vm := range vms {
		if err := h.pins.assign(vm, displaced[vm], usable); err != nil {
			h.pins.release(vm)
			if err := h.StopVM(vm); err == nil {
				stopped = append(stopped, vm)
			}
		}
	}
	return stopped
}
