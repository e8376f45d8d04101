package machine

import (
	"testing"

	"pivot/internal/profile"
	"pivot/internal/workload"
)

type fingerprintCase struct {
	name  string
	cfg   Config
	opt   Options
	tasks []TaskSpec
	want  uint64 // the value Machine.Fingerprint has always returned
}

// fingerprintCases covers the default policy, PIVOT with a potential set and
// per-task expected bandwidth, and a load-shaped LC task.
func fingerprintCases() []fingerprintCase {
	pivot := lcTask(workload.Masstree, 4_000)
	pivot.Potential = profile.CriticalSet{0x400: true, 0x4c0: true, 0x1000: true}
	pivot.ExpectedBW = 0.07
	return []fingerprintCase{
		{name: "default", cfg: KunpengConfig(4), opt: Options{},
			tasks: append([]TaskSpec{lcTask(workload.Silo, 5_000)}, beTasks(workload.IBench, 3)...),
			want:  0x2ebf5de88a70ba59},
		{name: "pivot", cfg: KunpengConfig(8), opt: Options{Policy: PolicyPIVOT, NoStarvationGuard: true},
			tasks: append([]TaskSpec{pivot}, beTasks(workload.IBench, 7)...),
			want:  0x29cae88eb3e25026},
		{name: "load-shaped", cfg: NeoverseConfig(4), opt: Options{Policy: PolicyFullPath, SampleRequests: 16},
			tasks: append([]TaskSpec{shapedLCTask()}, beTasks(workload.IBench, 2)...),
			want:  0xfb84477c585f1a10},
	}
}

// TestFingerprintOfMatchesMachine pins that the fingerprint computed from a
// machine's inputs equals the built machine's, and that both keep the values
// existing checkpoint directories are named by.
func TestFingerprintOfMatchesMachine(t *testing.T) {
	for _, tc := range fingerprintCases() {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(tc.cfg, tc.opt, tc.tasks)
			if err != nil {
				t.Fatal(err)
			}
			got := FingerprintOf(tc.cfg, tc.opt, tc.tasks)
			if got != m.Fingerprint() {
				t.Errorf("FingerprintOf = %#016x, Machine.Fingerprint = %#016x", got, m.Fingerprint())
			}
			if got != tc.want {
				t.Errorf("fingerprint moved: got %#016x, want %#016x", got, tc.want)
			}
			// The normalized options hash like the zero-valued defaults.
			norm, _ := tc.opt.normalize(tc.cfg)
			if FingerprintOf(tc.cfg, norm, tc.tasks) != got {
				t.Error("normalized options fingerprint differently from their defaults")
			}
		})
	}
}
