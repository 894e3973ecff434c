// Package machine holds Table 2 of the paper: the machine settings that the
// simulator (§3.2) and the optimizer's cost model (§3.1.2) both read. The
// engine and the model embed one Params, so a setting has one declaration,
// one default and one meaning in both.
package machine

// Params is the paper's Table 2.
type Params struct {
	Mips        float64 // CPU speed, 10^6 instructions per second
	NumDisks    int     // disks per site
	DiskInst    float64 // instructions per disk I/O request
	PageSize    int     // bytes per data page
	NetBw       float64 // network bandwidth, bits per second
	MsgInst     float64 // instructions to send or receive a message
	PerSizeMI   float64 // instructions to send or receive PageSize bytes
	DisplayInst float64 // instructions to display a tuple
	CompareInst float64 // instructions to apply a predicate
	HashInst    float64 // instructions to hash a tuple
	MoveInst    float64 // instructions to copy 4 bytes
	MaxAlloc    bool    // BufAlloc: joins get max (true) or min (false) memory
	FudgeF      float64 // Shapiro's hash-table fudge factor
}

// DefaultParams returns Table 2's default settings.
func DefaultParams() Params {
	return Params{
		Mips:        50,
		NumDisks:    1,
		DiskInst:    5000,
		PageSize:    4096,
		NetBw:       100e6,
		MsgInst:     20000,
		PerSizeMI:   12000,
		DisplayInst: 0,
		CompareInst: 2,
		HashInst:    9,
		MoveInst:    1,
		MaxAlloc:    false,
		FudgeF:      1.2,
	}
}

// CtrlMsgBytes is the size of a small control message, such as a page-fault
// request or a lease renewal.
const CtrlMsgBytes = 128

// The methods take pointers so that calls on per-row paths do not copy the
// table.

// CPUTime is the time a site's CPU takes to execute instr instructions.
func (p *Params) CPUTime(instr float64) float64 { return instr / (p.Mips * 1e6) }

// MsgInstr is the instructions one endpoint spends sending or receiving a
// message of the given size.
func (p *Params) MsgInstr(bytes int) float64 {
	return p.MsgInst + p.PerSizeMI*float64(bytes)/float64(p.PageSize)
}
