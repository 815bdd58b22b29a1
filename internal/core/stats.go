package core

import "cvm/internal/sim"

// NodeStats are the per-node counters behind Tables 2, 3 and 5 and the
// time breakdown behind Figure 1.
type NodeStats struct {
	// DSM actions (Table 3).
	ThreadSwitches    int64 // useful thread switches
	RemoteFaults      int64 // faults requiring network communication
	LocalFaults       int64 // write faults resolved locally (twin creation)
	RemoteLocks       int64 // lock acquires requiring network communication
	LocalLockAcquires int64 // acquires satisfied by the cached token or local queue
	OutstandingFaults int64 // outstanding remote faults sampled at each request
	OutstandingLocks  int64 // outstanding remote lock requests sampled likewise
	BlockSamePage     int64 // threads blocking on an already-pending page fetch
	BlockSameLock     int64 // threads blocking on a locally held/requested lock
	DiffsCreated      int64 // diffs materialized at this node
	DiffsUsed         int64 // diffs applied at this node
	RacesDetected     int64 // overlapping concurrent diffs (Config.DetectRaces)

	// Fault-model counters, kept by the simulated network (all zero on a
	// fault-free run): retransmissions this node sent after a drop and
	// duplicate replicas it received and discarded.
	Retransmits    int64
	DupsSuppressed int64

	// Adaptive-coherence counters (all zero with Config.Adapt off):
	// applied mode-change notices, eager diff pushes sent and fault
	// ranges they satisfied.
	ModeChanges  int64
	UpdatePushes int64
	UpdateHits   int64

	// Time breakdown (Figure 1): user time includes all local consistency
	// work; the waits are non-overlapped (node fully idle).
	UserTime    sim.Time
	FaultWait   sim.Time
	LockWait    sim.Time
	BarrierWait sim.Time
}

// Wall reports the sum of the four Figure 1 components.
func (s NodeStats) Wall() sim.Time {
	return s.UserTime + s.FaultWait + s.LockWait + s.BarrierWait
}

// Add accumulates other into s.
func (s *NodeStats) Add(other NodeStats) {
	s.ThreadSwitches += other.ThreadSwitches
	s.RemoteFaults += other.RemoteFaults
	s.LocalFaults += other.LocalFaults
	s.RemoteLocks += other.RemoteLocks
	s.LocalLockAcquires += other.LocalLockAcquires
	s.OutstandingFaults += other.OutstandingFaults
	s.OutstandingLocks += other.OutstandingLocks
	s.BlockSamePage += other.BlockSamePage
	s.BlockSameLock += other.BlockSameLock
	s.DiffsCreated += other.DiffsCreated
	s.DiffsUsed += other.DiffsUsed
	s.RacesDetected += other.RacesDetected
	s.Retransmits += other.Retransmits
	s.DupsSuppressed += other.DupsSuppressed
	s.ModeChanges += other.ModeChanges
	s.UpdatePushes += other.UpdatePushes
	s.UpdateHits += other.UpdateHits
	s.UserTime += other.UserTime
	s.FaultWait += other.FaultWait
	s.LockWait += other.LockWait
	s.BarrierWait += other.BarrierWait
}
