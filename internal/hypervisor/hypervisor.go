package hypervisor

import (
	"errors"
	"fmt"
	"sort"

	"uniserver/internal/dram"
	"uniserver/internal/vfr"
	"uniserver/internal/workload"
)

// Config sizes the hypervisor host.
type Config struct {
	Name string
	// Cores is the number of physical cores available to vCPUs.
	Cores int
	// Nominal is the host CPU's manufacturer operating point.
	Nominal vfr.Point
	// BaseOverheadBytes is the hypervisor's dynamic base footprint
	// (code, heap, caches) beyond the statically allocated objects.
	BaseOverheadBytes uint64
	// PerVMFixedBytes and PerVMFrac model the per-guest overhead
	// (vCPU state, shadow/EPT tables, virtio rings): a fixed cost plus
	// a fraction of guest memory.
	PerVMFixedBytes uint64
	PerVMFrac       float64
	// OversubscribeVCPU bounds total vCPUs per available core.
	OversubscribeVCPU int
	// IsolationThreshold is the number of correctable errors on one
	// core after which the hypervisor isolates it.
	IsolationThreshold int
}

// DefaultConfig returns a host shaped like the paper's micro-server.
func DefaultConfig() Config {
	return Config{
		Name:               "uniserver-node",
		Cores:              8,
		Nominal:            vfr.Point{VoltageMV: 980, FreqMHz: 2100},
		BaseOverheadBytes:  120 << 20,
		PerVMFixedBytes:    30 << 20,
		PerVMFrac:          0.005,
		OversubscribeVCPU:  4,
		IsolationThreshold: 24,
	}
}

// VM is one guest instance.
type VM struct {
	Spec    workload.VMSpec
	Windows int // observation windows since start
}

// Stats aggregates the hypervisor's resilience bookkeeping.
type Stats struct {
	ErrorsMasked  uint64
	CoresIsolated int
	VMsEvicted    uint64
}

// Hypervisor is the error-resilient virtualization layer.
type Hypervisor struct {
	cfg     Config
	objects *ObjectMap
	mem     *dram.MemorySystem
	alloc   *dram.Allocator

	vms           map[string]*VM
	pins          *pinner
	point         vfr.Point
	isolatedCores map[int]bool
	errorCounts   map[int]int // correctable errors per core toward isolation
	stats         Stats
}

// New builds a hypervisor on the host memory system. Its own state is
// placed on the reliable refresh domain (Section 6.C's "placing the
// whole Hypervisor in a reliable-memory domain"): the allocation fails
// if the memory system lacks one.
func New(cfg Config, objects *ObjectMap, mem *dram.MemorySystem) (*Hypervisor, error) {
	if cfg.Cores <= 0 {
		return nil, errors.New("hypervisor: config needs cores")
	}
	cfg.OversubscribeVCPU = max(cfg.OversubscribeVCPU, 1)
	if objects == nil || mem == nil {
		return nil, errors.New("hypervisor: nil object map or memory system")
	}
	h := &Hypervisor{
		cfg:           cfg,
		objects:       objects,
		mem:           mem,
		alloc:         dram.NewAllocator(mem),
		vms:           make(map[string]*VM),
		pins:          newPinner(cfg.OversubscribeVCPU),
		point:         cfg.Nominal,
		isolatedCores: make(map[int]bool),
		errorCounts:   make(map[int]int),
	}
	ownPages := (h.staticFootprint() + dram.PageSize - 1) / dram.PageSize
	if _, err := h.alloc.Alloc(cfg.Name+"/hypervisor", dram.CriticalityHypervisor, ownPages); err != nil {
		return nil, fmt.Errorf("hypervisor: placing own state: %w", err)
	}
	return h, nil
}

// staticFootprint is the hypervisor's footprint before any guest runs.
func (h *Hypervisor) staticFootprint() uint64 {
	return h.objects.StaticBytes() + h.cfg.BaseOverheadBytes
}

// Objects exposes the object inventory (the fault-injection campaigns
// operate on it).
func (h *Hypervisor) Objects() *ObjectMap { return h.objects }

// Allocator exposes guest-memory placement for inspection.
func (h *Hypervisor) Allocator() *dram.Allocator { return h.alloc }

// Point returns the current CPU operating point.
func (h *Hypervisor) Point() vfr.Point { return h.point }

// ApplyPoint reconfigures the CPU domain. The hypervisor refuses
// points above nominal voltage (that would be overvolting, not in
// scope) and non-positive values.
func (h *Hypervisor) ApplyPoint(p vfr.Point) error {
	if !p.Valid() {
		return fmt.Errorf("hypervisor: invalid point %v", p)
	}
	if p.VoltageMV > h.cfg.Nominal.VoltageMV {
		return fmt.Errorf("hypervisor: refusing overvolt to %dmV (nominal %dmV)",
			p.VoltageMV, h.cfg.Nominal.VoltageMV)
	}
	h.point = p
	return nil
}

// ApplyRefresh relaxes every non-reliable DRAM domain to the interval.
func (h *Hypervisor) ApplyRefresh(interval vfr.Point) error {
	if interval.Refresh <= 0 {
		return errors.New("hypervisor: point carries no refresh interval")
	}
	for _, dom := range h.mem.RelaxedDomains() {
		if err := dom.SetRefresh(interval.Refresh); err != nil {
			return err
		}
	}
	return nil
}

// AvailableCores returns the physical cores not isolated.
func (h *Hypervisor) AvailableCores() int {
	return h.cfg.Cores - len(h.isolatedCores)
}

// usedVCPUs sums the vCPUs of running guests.
func (h *Hypervisor) usedVCPUs() int {
	n := 0
	for _, vm := range h.vms {
		n += vm.Spec.VCPUs
	}
	return n
}

// StartVM admits a guest: capacity checks, then guest memory placement
// on relaxed domains (guests tolerate the EOP; the hypervisor masks
// what happens there).
func (h *Hypervisor) StartVM(spec workload.VMSpec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	if _, exists := h.vms[spec.Name]; exists {
		return fmt.Errorf("hypervisor: VM %q already exists", spec.Name)
	}
	if h.usedVCPUs()+spec.VCPUs > h.AvailableCores()*h.cfg.OversubscribeVCPU {
		return fmt.Errorf("hypervisor: vCPU capacity exhausted for %q", spec.Name)
	}
	pages := (spec.MemBytes + dram.PageSize - 1) / dram.PageSize
	if _, err := h.alloc.Alloc(spec.Name, dram.CriticalityNormal, pages); err != nil {
		return fmt.Errorf("hypervisor: guest memory for %q: %w", spec.Name, err)
	}
	overhead := h.cfg.PerVMFixedBytes + uint64(float64(spec.MemBytes)*h.cfg.PerVMFrac)
	ovhPages := (overhead + dram.PageSize - 1) / dram.PageSize
	if _, err := h.alloc.Alloc(spec.Name+"/overhead", dram.CriticalityHypervisor, ovhPages); err != nil {
		h.alloc.Free(spec.Name)
		return fmt.Errorf("hypervisor: overhead for %q: %w", spec.Name, err)
	}
	if err := h.pins.assign(spec.Name, spec.VCPUs, h.usableCores()); err != nil {
		h.alloc.Free(spec.Name)
		h.alloc.Free(spec.Name + "/overhead")
		return err
	}
	h.vms[spec.Name] = &VM{Spec: spec}
	return nil
}

// StopVM terminates a guest and releases its memory.
func (h *Hypervisor) StopVM(name string) error {
	if _, ok := h.vms[name]; !ok {
		return fmt.Errorf("hypervisor: unknown VM %q", name)
	}
	h.alloc.Free(name)
	h.alloc.Free(name + "/overhead")
	h.pins.release(name)
	delete(h.vms, name)
	return nil
}

// VMNames returns the names of live guests, sorted.
func (h *Hypervisor) VMNames() []string {
	names := make([]string, 0, len(h.vms))
	for n := range h.vms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// VM returns a guest by name.
func (h *Hypervisor) VM(name string) (*VM, bool) {
	vm, ok := h.vms[name]
	return vm, ok
}

// Tick advances every running guest by one observation window.
func (h *Hypervisor) Tick() {
	for _, vm := range h.vms {
		vm.Windows++
	}
}

// HypervisorBytes returns the hypervisor's current footprint: static
// objects, base overhead and per-VM overheads.
func (h *Hypervisor) HypervisorBytes() uint64 {
	total := h.staticFootprint()
	for _, vm := range h.vms {
		total += h.cfg.PerVMFixedBytes + uint64(float64(vm.Spec.MemBytes)*h.cfg.PerVMFrac)
	}
	return total
}

// GuestBytes returns the memory allocated to running guests.
func (h *Hypervisor) GuestBytes() uint64 {
	var total uint64
	for _, vm := range h.vms {
		total += vm.Spec.MemBytes
	}
	return total
}

// FootprintRatioPct returns the hypervisor footprint as a percentage
// of total utilized memory (Figure 3's red line).
func (h *Hypervisor) FootprintRatioPct() float64 {
	hyp := h.HypervisorBytes()
	total := hyp + h.GuestBytes()
	return 100 * float64(hyp) / float64(total)
}

// IsolateCore quarantines a physical core: no new vCPU placement, and
// vCPUs currently pinned there are re-homed onto the remaining cores.
// Guests whose vCPUs cannot be re-homed are stopped (the cloud layer
// reschedules them on another node) and counted in Stats.VMsEvicted.
func (h *Hypervisor) IsolateCore(core int) error {
	if core < 0 || core >= h.cfg.Cores {
		return fmt.Errorf("hypervisor: core %d out of range", core)
	}
	if h.isolatedCores[core] {
		return nil
	}
	h.isolatedCores[core] = true
	h.stats.CoresIsolated++
	displaced := h.pins.evictCore(core)
	if len(displaced) > 0 {
		stopped := h.rehomeDisplaced(displaced)
		h.stats.VMsEvicted += uint64(len(stopped))
	}
	return nil
}

// MaskCorrectable is the hypervisor's error-masking policy for
// correctable errors, the only kind a runtime window reports: it masks
// count errors and counts them toward the core's isolation threshold,
// quarantining the core once its count reaches the threshold. A
// negative core means DRAM, where SECDED corrected the errors and
// nothing is isolated.
func (h *Hypervisor) MaskCorrectable(core, count int) {
	h.stats.ErrorsMasked += uint64(count)
	if core < 0 {
		return
	}
	h.errorCounts[core] += count
	if h.errorCounts[core] >= h.cfg.IsolationThreshold {
		h.errorCounts[core] = 0
		_ = h.IsolateCore(core) // an out-of-range core stays in service
	}
}

// Stats returns resilience counters.
func (h *Hypervisor) Stats() Stats { return h.stats }
