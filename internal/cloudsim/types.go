package cloudsim

import "time"

// InstanceType describes a purchasable EC2 instance configuration (§1.1,
// §3.1). Rates and shapes follow the paper's description of 2010-era EC2.
type InstanceType struct {
	Name           string
	ComputeUnits   float64 // 1 ECU ≈ a 1.0-1.2 GHz 2007 Opteron/Xeon
	MemoryGB       float64
	LocalStorageGB int
	HourlyRate     float64 // dollars per full or partial hour in running state
}

// Small is the instance type the paper's experiments use ("most common and
// most cost effective", §3.1) at the $0.085/h rate quoted in §5.
var Small = InstanceType{
	Name:           "m1.small",
	ComputeUnits:   1,
	MemoryGB:       1.7,
	LocalStorageGB: 160,
	HourlyRate:     0.085,
}

// Region groups availability zones constructed to be failure-insulated
// (§1.1). Zones are named after the paper's us-east example.
type Region struct {
	Name  string
	Zones []string
}

// USEast is the default region with its four availability zones.
var USEast = Region{
	Name:  "us-east",
	Zones: []string{"us-east-1a", "us-east-1b", "us-east-1c", "us-east-1d"},
}

// State is an instance lifecycle state (§3.1: only the running state is
// billed).
type State int

// Lifecycle states.
const (
	Pending State = iota
	Running
	ShuttingDown
	Terminated
)

func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case ShuttingDown:
		return "shutting-down"
	case Terminated:
		return "terminated"
	}
	return "unknown"
}

// Quality captures the heterogeneity the paper observes: instances that are
// consistently fast, consistently slow (CPU up to a factor of 4 apart) or
// unstable (high measurement variance).
type Quality struct {
	// CPUFactor scales compute speed relative to a nominal instance of the
	// same type (1.0 = nominal, 0.25 = four times slower).
	CPUFactor float64
	// SeqReadMBps is the sustained block-read bandwidth of local storage,
	// the quantity the paper's bonnie++ qualification measures against its
	// 60 MB/s threshold.
	SeqReadMBps float64
	// SeqWriteMBps is the sustained block-write bandwidth.
	SeqWriteMBps float64
	// Stable is false for instances whose performance fluctuates run to
	// run; the qualification procedure repeats measurements to catch them.
	Stable bool
}

// Grade classifies the quality for reporting.
func (q Quality) Grade() string {
	switch {
	case !q.Stable:
		return "unstable"
	case q.SeqReadMBps < QualificationThresholdMBps || q.CPUFactor < 0.8:
		return "slow"
	default:
		return "good"
	}
}

// QualificationThresholdMBps is the paper's bonnie++ acceptance bar: over
// 60 MB/s block read/write performance (§4).
const QualificationThresholdMBps = 60.0

// Default lifecycle latencies. The paper quotes a ~3 minute penalty for
// instance startup plus EBS volume attachment (§3.1).
const (
	MinBootDelay      = 60 * time.Second
	MaxBootDelay      = 180 * time.Second
	ShutdownDelay     = 30 * time.Second
	VolumeAttachDelay = 20 * time.Second
)
