// Package e2e is the end-to-end gate of the spbd service plane: its tests
// build the real binaries once, start real daemons on port 0, talk to them
// through internal/client, run spbsim and spbsweep beside them for
// the byte comparisons, and kill, restart and drain them the way an operator
// (or a power cut) would. The tests sit behind the e2e build tag because
// they cost tens of seconds and spawn processes:
//
//	go test -tags e2e -count=1 ./internal/e2e     (make e2e)
//
// Each numbered property of the four shell scripts this package replaced
// (serve_check, chaos_check, chaos_kill_check, cluster_check) is a named
// subtest of TestServe, TestChaos, TestChaosKill and TestCluster.
package e2e
