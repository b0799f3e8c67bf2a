package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// ChromeOptions configures the Chrome trace_event exporter.
type ChromeOptions struct {
	// ProcessName prefixes each machine's process track, which is named
	// "<ProcessName>/m<id>" ("veil" if empty).
	ProcessName string
	// CyclesPerMicrosecond converts virtual cycles to the microsecond
	// timestamps the trace_event format expects (1000 if zero; pass the
	// simulated clock rate, e.g. SimClockHz/1e6, for wall-clock-accurate
	// timelines).
	CyclesPerMicrosecond float64
	// SyscallName, when set, resolves syscall numbers to names in event
	// args (the recorder itself stores only numbers).
	SyscallName func(sysno uint64) string
}

// WriteChromeTrace writes the recorders' events as Chrome trace_event
// JSON (the "JSON Array Format" with one object), loadable in
// chrome://tracing and Perfetto. Each recorder is one process (pid = its
// machine id, process_name "<name>/m<id>"), emitted in slice order, with
// one track per VCPU; a single machine is simply a fleet of one. Virtual
// time is the shared fleet clock, so cross-CVM exchanges line up on the
// common timeline, and matched NetTx→NetRx breadcrumbs become
// cross-process "wire" flow arrows: a request crossing machines renders
// as one connected flow. The output is fully deterministic: two identical
// runs export byte-identical files.
//
// The recorders must form a well-formed fleet (see validateFleet);
// anything else errors rather than silently interleaving tracks.
func WriteChromeTrace(w io.Writer, opts ChromeOptions, recs ...*Recorder) error {
	if err := validateFleet(recs); err != nil {
		return err
	}
	if opts.ProcessName == "" {
		opts.ProcessName = "veil"
	}
	cpm := opts.CyclesPerMicrosecond
	if cpm <= 0 {
		cpm = 1000
	}
	var dropped uint64
	for _, r := range recs {
		dropped += r.Dropped()
	}
	ms := machineEvents(recs)
	wires := fleetTxIndex(ms)
	bw := &errWriter{w: w}
	bw.printf("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"producer\":\"%s\",\"dropped_events\":\"%d\"},\"traceEvents\":[\n", opts.ProcessName, dropped)
	flowID := 0
	for i, m := range ms {
		name := fmt.Sprintf("%s/m%d", opts.ProcessName, m.Machine)
		writeChromeProcess(bw, m, name, cpm, opts.SyscallName, &flowID, i == 0, wires)
	}
	bw.printf("\n]}\n")
	return bw.err
}

// writeChromeProcess emits one machine's worth of trace rows: process and
// thread metadata, every retained event, intra-machine causal flow
// arrows and cross-process "wire" arrows from each NetRx back to the
// NetTx that sent its frame. first suppresses the leading comma of the
// very first row of the file; flowID is shared across machines so arrow
// ids stay unique in a merged trace.
func writeChromeProcess(bw *errWriter, m MachineEvents, name string, cpm float64, sysName func(uint64) string, flowID *int, first bool, wires map[[2]uint64]*fleetTxPoint) {
	pid, events := m.Machine, m.Events

	// One metadata row per observed VCPU, in ascending order, so tracks
	// are stably named.
	seen := map[int32]bool{}
	var vcpus []int32
	for _, e := range events {
		if !seen[e.VCPU] {
			seen[e.VCPU] = true
			vcpus = append(vcpus, e.VCPU)
		}
	}
	sort.Slice(vcpus, func(i, j int) bool { return vcpus[i] < vcpus[j] })

	// Index retained span events so causal flow arrows can bind each span
	// to the parent it nests under (evicted parents simply get no arrow).
	bySpan := map[uint64]Event{}
	for _, e := range events {
		if e.Span != 0 {
			bySpan[e.Span] = e
		}
	}

	if !first {
		bw.printf(",\n")
	}
	bw.printf("{\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"%s\"}}", pid, name)
	for _, v := range vcpus {
		bw.printf(",\n{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"vcpu%d\"}}", pid, v, v)
	}
	us := func(cycles uint64) string {
		return strconv.FormatFloat(float64(cycles)/cpm, 'f', 3, 64)
	}
	for _, e := range events {
		bw.printf(",\n")
		writeChromeEvent(bw, e, pid, cpm, sysName)
		// One flow arrow per nested span: parent span start → child span
		// start, so Perfetto renders the request tree across tracks.
		if e.Kind == Span && e.Span != 0 && e.Parent != 0 {
			if p, ok := bySpan[e.Parent]; ok {
				*flowID++
				bw.printf(",\n{\"ph\":\"s\",\"id\":%d,\"name\":\"causal\",\"cat\":\"veil\",\"pid\":%d,\"tid\":%d,\"ts\":%s}",
					*flowID, pid, p.VCPU, us(p.Start()))
				bw.printf(",\n{\"ph\":\"f\",\"bp\":\"e\",\"id\":%d,\"name\":\"causal\",\"cat\":\"veil\",\"pid\":%d,\"tid\":%d,\"ts\":%s}",
					*flowID, pid, e.VCPU, us(e.Start()))
			}
		}
		// One cross-process arrow per matched wire hop: the sender's NetTx
		// breadcrumb → this machine's NetRx, rendering the request as one
		// connected flow across machine process tracks.
		if e.Class == ClassNetRx {
			if tx, ok := wires[[2]uint64{e.Arg1, e.Arg2}]; ok && tx.machine != pid {
				*flowID++
				bw.printf(",\n{\"ph\":\"s\",\"id\":%d,\"name\":\"wire\",\"cat\":\"veil\",\"pid\":%d,\"tid\":%d,\"ts\":%s}",
					*flowID, tx.machine, tx.vcpu, us(tx.ts))
				bw.printf(",\n{\"ph\":\"f\",\"bp\":\"e\",\"id\":%d,\"name\":\"wire\",\"cat\":\"veil\",\"pid\":%d,\"tid\":%d,\"ts\":%s}",
					*flowID, pid, e.VCPU, us(e.TS))
			}
		}
	}
}

func writeChromeEvent(bw *errWriter, e Event, pid int, cpm float64, sysName func(uint64) string) {
	us := func(cycles uint64) string {
		return strconv.FormatFloat(float64(cycles)/cpm, 'f', 3, 64)
	}
	if e.Kind == Span {
		bw.printf("{\"name\":\"%s\",\"cat\":\"veil\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"dur\":%s",
			e.Class, pid, e.VCPU, us(e.Start()), us(e.Dur))
	} else {
		bw.printf("{\"name\":\"%s\",\"cat\":\"veil\",\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":%d,\"ts\":%s",
			e.Class, pid, e.VCPU, us(e.TS))
	}
	bw.printf(",\"args\":{\"cycles\":%d", e.TS)
	if e.VMPL >= 0 {
		bw.printf(",\"vmpl\":%d", e.VMPL)
	}
	if e.Span != 0 {
		bw.printf(",\"span\":%d", e.Span)
	}
	if e.Parent != 0 {
		bw.printf(",\"parent\":%d", e.Parent)
	}
	switch e.Class {
	case ClassRoundTrip:
		bw.printf(",\"exit_code\":\"0x%x\"", e.Arg1)
	case ClassDomainSwitch:
		bw.printf(",\"from_vmpl\":%d,\"to_vmpl\":%d", e.Arg1, e.Arg2)
	case ClassRMPAdjust:
		bw.printf(",\"page\":\"0x%x\",\"target_vmpl\":%d,\"perms\":\"0x%x\"", e.Arg1, e.Arg2>>8, e.Arg2&0xff)
	case ClassPValidate:
		bw.printf(",\"page\":\"0x%x\",\"validate\":%d", e.Arg1, e.Arg2)
	case ClassSyscall:
		bw.printf(",\"sysno\":%d", e.Arg1)
		if sysName != nil {
			bw.printf(",\"sysname\":%s", strconv.Quote(sysName(e.Arg1)))
		}
	case ClassAudit:
		bw.printf(",\"record_bytes\":%d", e.Arg1)
	case ClassFault:
		bw.printf(",\"phys\":\"0x%x\",\"fault_kind\":%d", e.Arg1, e.Arg2)
	case ClassPageState:
		bw.printf(",\"first_page\":\"0x%x\",\"pages\":%d,\"assign\":%d", e.Arg1, e.Arg2>>1, e.Arg2&1)
	case ClassService:
		bw.printf(",\"service\":%d,\"op\":%d", e.Arg1, e.Arg2)
	case ClassEnclaveEnter:
		bw.printf(",\"tag\":%d", e.Arg1)
	case ClassDenied:
		bw.printf(",\"reason\":%d,\"context\":\"0x%x\"", e.Arg1, e.Arg2)
	case ClassInvariant:
		bw.printf(",\"check\":%d,\"violations\":%d", e.Arg1, e.Arg2)
	case ClassNetTx, ClassNetRx:
		tm, tsp := UnpackTraceRef(e.Arg1)
		cm, csp := UnpackTraceRef(e.Arg2)
		bw.printf(",\"trace_machine\":%d,\"trace_span\":%d,\"ctx_machine\":%d,\"ctx_span\":%d", tm, tsp, cm, csp)
	}
	bw.printf("}}")
}

// errWriter latches the first write error so the exporters stay linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (b *errWriter) printf(format string, args ...any) {
	if b.err != nil {
		return
	}
	_, b.err = fmt.Fprintf(b.w, format, args...)
}
