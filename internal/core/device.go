package core

import (
	"fmt"
	"sort"
)

// DeviceID identifies one device (GPU) in the cluster. Workers are grouped
// into per-device pools; cell-type weights are pinned to devices and batches
// prefer workers on the device that already holds the weights (§5).
type DeviceID int

// NoDevice is the "unassigned" sentinel.
const NoDevice DeviceID = -1

// assignPins distributes cell types across devices by load estimate: LPT
// greedy — heaviest type first onto the least-loaded device. Every device is
// then guaranteed at least one resident type by replicating the heaviest
// types round-robin onto devices left empty (a cluster with fewer types than
// devices would otherwise idle the extra devices entirely).
func (s *Scheduler) assignPins() {
	// typeOrder is ascending by key, so the stable sort breaks weight ties
	// by key.
	ids := append([]TypeID(nil), s.typeOrder...)
	sort.SliceStable(ids, func(i, j int) bool {
		return s.types[ids[i]].weight() > s.types[ids[j]].weight()
	})
	load := make([]float64, s.devices)
	for _, id := range ids {
		ct := &s.types[id]
		best := 0
		for d := 1; d < s.devices; d++ {
			if load[d] < load[best] {
				best = d
			}
		}
		ct.pins = []DeviceID{DeviceID(best)}
		load[best] += ct.weight()
	}
	// Replicate the heaviest types onto devices with no resident type.
	next := 0
	for d := 0; d < s.devices; d++ {
		if s.residentCount(DeviceID(d)) > 0 {
			continue
		}
		ct := &s.types[ids[next%len(ids)]]
		next++
		ct.pins = append(ct.pins, DeviceID(d))
		sortPins(ct.pins)
	}
}

func (ct *cellType) weight() float64 {
	if ct.cfg.Weight > 0 {
		return ct.cfg.Weight
	}
	return 1
}

// residentOn reports whether the type's weights are pinned on dev.
func (ct *cellType) residentOn(dev DeviceID) bool {
	for _, d := range ct.pins {
		if d == dev {
			return true
		}
	}
	return false
}

func (s *Scheduler) residentCount(dev DeviceID) int {
	n := 0
	for i := range s.types {
		if s.types[i].residentOn(dev) {
			n++
		}
	}
	return n
}

func sortPins(p []DeviceID) {
	sort.Slice(p, func(i, j int) bool { return p[i] < p[j] })
}

// BindWorker assigns a worker to a device pool. The engine must bind every
// worker it will pass to Schedule before scheduling starts; unbound workers
// default to device 0.
func (s *Scheduler) BindWorker(w WorkerID, d DeviceID) error {
	if d < 0 || int(d) >= s.devices {
		return fmt.Errorf("core: device %d out of range [0,%d)", d, s.devices)
	}
	if s.workerDev == nil {
		s.workerDev = make(map[WorkerID]DeviceID)
	}
	s.workerDev[w] = d
	return nil
}

// DeviceOf returns the device a worker is bound to (device 0 if unbound).
func (s *Scheduler) DeviceOf(w WorkerID) DeviceID {
	if d, ok := s.workerDev[w]; ok {
		return d
	}
	return 0
}

// Devices returns the configured device count.
func (s *Scheduler) Devices() int { return s.devices }

// TypeDevices returns a copy of the device pin set for a cell type.
func (s *Scheduler) TypeDevices(t TypeID) []DeviceID {
	return append([]DeviceID(nil), s.types[t].pins...)
}

// DeviceReady returns the ready-node depth attributed to a device: each
// resident type contributes readyNodes divided by its replica count (a type
// pinned on two devices can drain from either, so each carries half the
// pressure).
func (s *Scheduler) DeviceReady(d DeviceID) float64 {
	depth := 0.0
	for _, id := range s.typeOrder {
		ct := &s.types[id]
		if len(ct.pins) > 0 && ct.residentOn(d) {
			depth += float64(ct.readyNodes) / float64(len(ct.pins))
		}
	}
	return depth
}

// PinMoves returns how many pin reassignments MaybeRebalance has made.
func (s *Scheduler) PinMoves() int { return s.pinMoves }

// RemoteTasks returns how many tasks were dispatched to a worker whose
// device does not hold the type's weights (work-conserving steals, each
// paying a weight-fetch copy).
func (s *Scheduler) RemoteTasks() int { return s.remoteTasks }

// MigratedRequests returns how many task-level request migrations crossed a
// device boundary (each pays a hidden-state copy).
func (s *Scheduler) MigratedRequests() int { return s.migratedRequests }

// MaybeRebalance checks per-device ready-depth skew and, when the deepest
// device exceeds RebalanceSkew times the shallowest (plus one, so empty
// clusters never trigger), re-pins one cell type toward the shallow device:
// singly-pinned types are replicated (weights now live on both devices),
// already-replicated types are moved. Returns the number of pin moves made
// (0 or 1). Engines call it periodically from their scheduling loop.
func (s *Scheduler) MaybeRebalance() int {
	if s.devices < 2 {
		return 0
	}
	if cap(s.devScratch) < s.devices {
		s.devScratch = make([]float64, s.devices)
	}
	depth := s.devScratch[:s.devices]
	for d := range depth {
		depth[d] = s.DeviceReady(DeviceID(d))
	}
	maxD, minD := 0, 0
	for d := 1; d < s.devices; d++ {
		if depth[d] > depth[maxD] {
			maxD = d
		}
		if depth[d] < depth[minD] {
			minD = d
		}
	}
	if depth[maxD] < s.cfg.RebalanceSkew*(depth[minD]+1) {
		return 0
	}
	// Candidate: the most-ready type resident on the deep device and not
	// already on the shallow one (deterministic tie-break: typeOrder).
	var cand *cellType
	for _, id := range s.typeOrder {
		ct := &s.types[id]
		if !ct.residentOn(DeviceID(maxD)) || ct.residentOn(DeviceID(minD)) {
			continue
		}
		if cand == nil || ct.readyNodes > cand.readyNodes {
			cand = ct
		}
	}
	if cand == nil {
		return 0
	}
	if len(cand.pins) == 1 {
		cand.pins = append(cand.pins, DeviceID(minD))
	} else {
		keep := cand.pins[:0]
		for _, d := range cand.pins {
			if d != DeviceID(maxD) {
				keep = append(keep, d)
			}
		}
		cand.pins = append(keep, DeviceID(minD))
	}
	sortPins(cand.pins)
	s.pinMoves++
	return 1
}
