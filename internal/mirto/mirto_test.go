package mirto

import (
	"strings"
	"testing"

	"myrtus/internal/cluster"
	"myrtus/internal/continuum"
	"myrtus/internal/device"
	"myrtus/internal/sim"
	"myrtus/internal/swarm"
	"myrtus/internal/tosca"
	"myrtus/internal/workload"
)

const appYAML = `
tosca_definitions_version: tosca_2_0
metadata:
  template_name: mobility
topology_template:
  node_templates:
    camera:
      type: myrtus.nodes.Container
      properties:
        cpu: 0.5
        memoryMB: 128
        gops: 0.5
        outMB: 2.0
    detector:
      type: myrtus.nodes.AcceleratedKernel
      properties:
        cpu: 1.0
        memoryMB: 512
        kernel: conv2d
        gops: 12
        outMB: 0.2
      requirements:
        - source: camera
    aggregator:
      type: myrtus.nodes.Container
      properties:
        cpu: 2
        memoryMB: 2048
        gops: 4
        outMB: 0.05
      requirements:
        - source: detector
  policies:
    - cam-edge:
        type: myrtus.policies.Placement
        targets: [camera]
        properties:
          layer: edge
    - det-medium:
        type: myrtus.policies.Security
        targets: [detector]
        properties:
          level: medium
`

func deviceWorkG(gops float64) device.Work { return device.Work{GOps: gops} }

func testContinuum(t *testing.T) *continuum.Continuum {
	t.Helper()
	opts := continuum.DefaultOptions()
	opts.KBReplicas = 1
	c, err := continuum.Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func parseApp(t *testing.T) *tosca.ServiceTemplate {
	t.Helper()
	st, err := tosca.Parse(appYAML)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestPlanRespectsConstraints(t *testing.T) {
	c := testContinuum(t)
	m := NewManager(c, BalancedGoal())
	plan, err := m.Plan(parseApp(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Assignments) != 3 {
		t.Fatalf("assignments = %+v", plan.Assignments)
	}
	cam, _ := plan.Assignment("camera")
	if cam.Layer != "edge" {
		t.Fatalf("camera on layer %q", cam.Layer)
	}
	det, _ := plan.Assignment("detector")
	d := c.Devices[det.Device]
	if !d.SupportsSecurity("medium") {
		t.Fatalf("detector on %s without medium security", det.Device)
	}
	if plan.Negotiations == 0 {
		t.Fatal("no inter-agent negotiation recorded")
	}
	if plan.Score <= 0 {
		t.Fatalf("score = %v", plan.Score)
	}
}

func TestPlanPrefersAcceleratorForKernel(t *testing.T) {
	c := testContinuum(t)
	m := NewManager(c, LatencyGoal())
	plan, err := m.Plan(parseApp(t))
	if err != nil {
		t.Fatal(err)
	}
	det, _ := plan.Assignment("detector")
	// With a conv2d bitstream available, the latency goal should pick an
	// HMPSoC (fpga) over plain multicores at the edge, or an FMDC.
	dev := c.Devices[det.Device]
	hasAccel := dev.Fabric() != nil || dev.Spec().GOPSPerCore >= 25
	if !hasAccel {
		t.Fatalf("detector on %s (%s), no acceleration", det.Device, dev.Spec().Kind)
	}
}

func TestPlanTrustFilter(t *testing.T) {
	c := testContinuum(t)
	goal := BalancedGoal()
	goal.TrustThreshold = 0.6
	m := NewManager(c, goal)
	// Tank the reputation of every fog/cloud device and all edge devices
	// except one multicore.
	for _, name := range c.DeviceNames() {
		if name == "edge-mc-0" {
			for i := 0; i < 20; i++ {
				c.Trust.Observe("probe", name, true)
			}
			continue
		}
		for i := 0; i < 20; i++ {
			c.Trust.Observe("probe", name, false)
		}
	}
	st, _ := tosca.Parse(`
tosca_definitions_version: tosca_2_0
metadata:
  template_name: trusty
topology_template:
  node_templates:
    w:
      type: myrtus.nodes.Container
      properties:
        cpu: 1
        memoryMB: 128
`)
	plan, err := m.Plan(st)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := plan.Assignment("w")
	if a.Device != "edge-mc-0" {
		t.Fatalf("placed on untrusted device %s", a.Device)
	}
}

func TestPlanInfeasible(t *testing.T) {
	c := testContinuum(t)
	m := NewManager(c, BalancedGoal())
	st, _ := tosca.Parse(`
tosca_definitions_version: tosca_2_0
topology_template:
  node_templates:
    monster:
      type: myrtus.nodes.Container
      properties:
        cpu: 10000
        memoryMB: 64
`)
	if _, err := m.Plan(st); err == nil {
		t.Fatal("infeasible plan accepted")
	}
	// Invalid template rejected by validation.
	bad, _ := tosca.Parse(`
tosca_definitions_version: tosca_2_0
topology_template:
  node_templates:
    w:
      type: bogus.Type
      properties:
        cpu: 1
        memoryMB: 64
`)
	if _, err := m.Plan(bad); err == nil {
		t.Fatal("invalid template accepted")
	}
}

func TestExecuteBindsPods(t *testing.T) {
	c := testContinuum(t)
	m := NewManager(c, BalancedGoal())
	plan, _ := m.Plan(parseApp(t))
	if err := m.Execute(plan); err != nil {
		t.Fatal(err)
	}
	for _, a := range plan.Assignments {
		p, ok := a.Cluster.Pod(a.PodName)
		if !ok || p.Phase != cluster.PodRunning || p.Node != a.Device {
			t.Fatalf("assignment %s: pod %+v", a.TemplateNode, p)
		}
	}
	// Node Manager loaded the conv2d bitstream if detector sits on an FPGA.
	det, _ := plan.Assignment("detector")
	if fab := c.Devices[det.Device].Fabric(); fab != nil {
		if fab.FindLoaded("conv2d") < 0 {
			t.Fatal("bitstream not loaded")
		}
	}
	m.Teardown(plan)
	for _, a := range plan.Assignments {
		if _, ok := a.Cluster.Pod(a.PodName); ok {
			t.Fatal("pod survived teardown")
		}
	}
}

func TestMultiComponentNoOvercommit(t *testing.T) {
	c := testContinuum(t)
	m := NewManager(c, BalancedGoal())
	// Many medium components: planner must spread across devices without
	// exceeding capacity.
	st, _ := tosca.Parse(`
tosca_definitions_version: tosca_2_0
metadata:
  template_name: fleet
topology_template:
  node_templates:
    a:
      type: myrtus.nodes.Container
      properties: {cpu: 3, memoryMB: 1024}
    b:
      type: myrtus.nodes.Container
      properties: {cpu: 3, memoryMB: 1024}
    c:
      type: myrtus.nodes.Container
      properties: {cpu: 3, memoryMB: 1024}
    d:
      type: myrtus.nodes.Container
      properties: {cpu: 3, memoryMB: 1024}
`)
	plan, err := m.Plan(st)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Execute(plan); err != nil {
		t.Fatal(err)
	}
	for _, cl := range c.Layers() {
		for _, n := range cl.Nodes() {
			free, _ := cl.FreeOn(n.Name)
			if free.CPU < -1e-9 {
				t.Fatalf("node %s overcommitted", n.Name)
			}
		}
	}
}

func TestRuntimeServeRequest(t *testing.T) {
	c := testContinuum(t)
	m := NewManager(c, LatencyGoal())
	o := NewOrchestrator(m)
	if _, err := o.Deploy(parseApp(t)); err != nil {
		t.Fatal(err)
	}
	lat, energy, err := o.R.ServeRequest("mobility", 4)
	if err != nil {
		t.Fatal(err)
	}
	if lat <= 0 || energy <= 0 {
		t.Fatalf("lat=%v energy=%v", lat, energy)
	}
	k, ok := o.R.KPIs("mobility")
	if !ok || k.Requests != 1 || k.Failed != 0 {
		t.Fatalf("kpis = %+v", k)
	}
	if k.LatencyMs.Count != 1 || k.EnergyJoules <= 0 {
		t.Fatalf("kpis = %+v", k)
	}
}

func TestRuntimeUnknownApp(t *testing.T) {
	c := testContinuum(t)
	o := NewOrchestrator(NewManager(c, BalancedGoal()))
	if err := o.R.Submit("ghost", 1, nil); err == nil {
		t.Fatal("ghost app accepted")
	}
	if _, _, err := o.R.ServeRequest("ghost", 1); err == nil {
		t.Fatal("ghost serve accepted")
	}
}

func TestRuntimeDeviceFailure(t *testing.T) {
	c := testContinuum(t)
	o := NewOrchestrator(NewManager(c, LatencyGoal()))
	plan, _ := o.Deploy(parseApp(t))
	cam, _ := plan.Assignment("camera")
	c.FailDevice(cam.Device) //nolint:errcheck
	if _, _, err := o.R.ServeRequest("mobility", 1); err == nil {
		t.Fatal("request succeeded on failed device")
	}
	k, _ := o.R.KPIs("mobility")
	if k.Failed != 1 {
		t.Fatalf("failed = %d", k.Failed)
	}
}

func TestOrchestratorDeployLifecycle(t *testing.T) {
	c := testContinuum(t)
	o := NewOrchestrator(NewManager(c, BalancedGoal()))
	if _, err := o.Deploy(parseApp(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Deploy(parseApp(t)); err == nil {
		t.Fatal("duplicate deploy accepted")
	}
	if len(o.Plans()) != 1 {
		t.Fatal("plans")
	}
	if _, ok := o.PlanFor("mobility"); !ok {
		t.Fatal("PlanFor")
	}
	if err := o.Undeploy("mobility"); err != nil {
		t.Fatal(err)
	}
	if err := o.Undeploy("mobility"); err == nil {
		t.Fatal("double undeploy accepted")
	}
	if len(o.Plans()) != 0 {
		t.Fatal("plans after undeploy")
	}
}

func TestMAPEKLoopRecoversFromFailure(t *testing.T) {
	c := testContinuum(t)
	o := NewOrchestrator(NewManager(c, LatencyGoal()))
	plan, err := o.Deploy(parseApp(t))
	if err != nil {
		t.Fatal(err)
	}
	loop, err := o.AttachLoop("mobility", SLO{MaxFailureRate: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := o.Loop("mobility"); !ok {
		t.Fatal("loop not attached")
	}
	// Break the camera's device mid-flight.
	cam, _ := plan.Assignment("camera")
	c.FailDevice(cam.Device)        //nolint:errcheck
	o.R.ServeRequest("mobility", 1) //nolint:errcheck // fails, raising failure_rate
	rec := loop.Iterate()
	if len(rec.Violations) == 0 {
		t.Fatal("loop missed the violation")
	}
	if len(rec.Actions) == 0 || rec.Actions[0].Kind != "replan" {
		t.Fatalf("actions = %+v", rec.Actions)
	}
	if len(rec.ExecErrors) > 0 {
		t.Fatalf("replan failed: %v", rec.ExecErrors)
	}
	// New plan avoids the failed device; requests flow again.
	np, _ := o.PlanFor("mobility")
	ncam, _ := np.Assignment("camera")
	if ncam.Device == cam.Device {
		t.Fatal("replan kept the failed device")
	}
	if _, _, err := o.R.ServeRequest("mobility", 1); err != nil {
		t.Fatalf("post-replan request failed: %v", err)
	}
}

func TestAttachLoopUnknownApp(t *testing.T) {
	c := testContinuum(t)
	o := NewOrchestrator(NewManager(c, BalancedGoal()))
	if _, err := o.AttachLoop("ghost", SLO{}); err == nil {
		t.Fatal("ghost loop accepted")
	}
}

func TestEnergyGoalUsesEcoConfigurations(t *testing.T) {
	c1 := testContinuum(t)
	oLat := NewOrchestrator(NewManager(c1, LatencyGoal()))
	oLat.Deploy(parseApp(t)) //nolint:errcheck
	latL, eL, err := oLat.R.ServeRequest("mobility", 4)
	if err != nil {
		t.Fatal(err)
	}
	c2 := testContinuum(t)
	oEco := NewOrchestrator(NewManager(c2, EnergyGoal()))
	oEco.Deploy(parseApp(t)) //nolint:errcheck
	latE, eE, err := oEco.R.ServeRequest("mobility", 4)
	if err != nil {
		t.Fatal(err)
	}
	// The E-shape: energy goal trades latency for energy.
	if eE >= eL {
		t.Fatalf("energy goal did not save energy: %v vs %v J", eE, eL)
	}
	if latE < latL {
		t.Logf("note: eco also faster (%v vs %v) — acceptable but unusual", latE, latL)
	}
}

func TestTopoOrderRespectsRequirements(t *testing.T) {
	st := parseApp(t)
	order := topoOrder(st)
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	if !(pos["camera"] < pos["detector"] && pos["detector"] < pos["aggregator"]) {
		t.Fatalf("order = %v", order)
	}
}

func TestPlanDeterministic(t *testing.T) {
	mk := func() []Assignment {
		c := testContinuum(t)
		m := NewManager(c, BalancedGoal())
		p, err := m.Plan(parseApp(t))
		if err != nil {
			t.Fatal(err)
		}
		return p.Assignments
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i].Device != b[i].Device {
			t.Fatalf("non-deterministic planning: %v vs %v", a, b)
		}
	}
}

func TestServeRequestLatencyBeatsCloudOnlyShape(t *testing.T) {
	// Qualitative continuum claim: keeping the sensor-adjacent stages at
	// the edge beats shipping raw sensor data to the cloud. The camera
	// ingests 4 MB per request at the edge HMPSoC.
	const ingress = "edge-hmp-0"
	smartYAML := strings.Replace(appYAML, "        gops: 0.5\n",
		"        gops: 0.5\n        inMB: 4.0\n        device: "+ingress+"\n", 1)
	c := testContinuum(t)
	o := NewOrchestrator(NewManager(c, LatencyGoal()))
	st, err := tosca.Parse(smartYAML)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Deploy(st); err != nil {
		t.Fatal(err)
	}
	latSmart, _, err := o.R.ServeRequestFrom("mobility", ingress, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Cloud-only variant: same ingestion, everything forced to the cloud.
	cloudYAML := strings.Replace(appYAML, "        gops: 0.5\n",
		"        gops: 0.5\n        inMB: 4.0\n", 1)
	cloudYAML = strings.ReplaceAll(cloudYAML, "layer: edge", "layer: cloud")
	cloudYAML = strings.ReplaceAll(cloudYAML, "template_name: mobility", "template_name: mobility-cloud")
	st2, err := tosca.Parse(cloudYAML)
	if err != nil {
		t.Fatal(err)
	}
	st2.Policies = append(st2.Policies, tosca.Policy{
		Name: "all-cloud", Type: tosca.PolicyPlacement,
		Targets:    []string{"detector", "aggregator"},
		Properties: map[string]any{"layer": "cloud"},
	})
	if _, err := o.Deploy(st2); err != nil {
		t.Fatal(err)
	}
	latCloud, _, err := o.R.ServeRequestFrom("mobility-cloud", ingress, 4)
	if err != nil {
		t.Fatal(err)
	}
	if latSmart >= latCloud {
		t.Fatalf("continuum placement (%v) did not beat cloud-only (%v)", latSmart, latCloud)
	}
	_ = sim.Second
}

func TestImageAdmission(t *testing.T) {
	c := testContinuum(t)
	c.Images.GrantToken("ci", "push")
	if _, err := c.Images.Push("ci", "detector", "v1", []byte("good-image"), nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Images.Push("ci", "trojan", "v1", []byte("MALWARE-TEST-SIGNATURE"), nil, nil); err != nil {
		t.Fatal(err)
	}
	m := NewManager(c, BalancedGoal())
	mk := func(image string) *tosca.ServiceTemplate {
		st, err := tosca.Parse(`
tosca_definitions_version: tosca_2_0
metadata:
  template_name: imaged
topology_template:
  node_templates:
    w:
      type: myrtus.nodes.Container
      properties:
        cpu: 1
        memoryMB: 128
        image: "` + image + `"
`)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	if _, err := m.Plan(mk("detector:v1")); err != nil {
		t.Fatalf("pullable image rejected: %v", err)
	}
	if _, err := m.Plan(mk("trojan:v1")); err == nil {
		t.Fatal("quarantined image admitted")
	}
	if _, err := m.Plan(mk("ghost:v9")); err == nil {
		t.Fatal("missing image admitted")
	}
	// Untagged refs default to :latest.
	if _, err := c.Images.Push("ci", "plain", "latest", []byte("ok"), nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Plan(mk("plain")); err != nil {
		t.Fatalf("untagged ref rejected: %v", err)
	}
}

func TestSplitImageRef(t *testing.T) {
	for _, c := range []struct{ in, name, tag string }{
		{"app:v1", "app", "v1"},
		{"app", "app", "latest"},
		{"registry/app:2024.1", "registry/app", "2024.1"},
	} {
		n, tg := splitImageRef(c.in)
		if n != c.name || tg != c.tag {
			t.Fatalf("splitImageRef(%q) = %q %q", c.in, n, tg)
		}
	}
}

func TestLoopBoostsBeforeReplanning(t *testing.T) {
	c := testContinuum(t)
	// Energy goal parks devices at eco operating points / lower DVFS.
	o := NewOrchestrator(NewManager(c, EnergyGoal()))
	plan, err := o.Deploy(parseApp(t))
	if err != nil {
		t.Fatal(err)
	}
	loop, err := o.AttachLoop("mobility", SLO{P95LatencyMs: 0.001}) // impossible target
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := o.R.ServeRequest("mobility", 4); err != nil {
		t.Fatal(err)
	}
	slowLat, _, _ := o.R.ServeRequest("mobility", 4)
	rec := loop.Iterate()
	if len(rec.Actions) != 1 || rec.Actions[0].Kind != "boost" {
		t.Fatalf("first escalation = %+v", rec.Actions)
	}
	if len(rec.ExecErrors) > 0 {
		t.Fatalf("boost failed: %v", rec.ExecErrors)
	}
	// Devices now run at full clock: same placement, faster request.
	fastLat, _, err := o.R.ServeRequest("mobility", 4)
	if err != nil {
		t.Fatal(err)
	}
	if fastLat >= slowLat {
		t.Fatalf("boost did not speed up: %v -> %v", slowLat, fastLat)
	}
	// Placement unchanged by the boost.
	np, _ := o.PlanFor("mobility")
	for i := range plan.Assignments {
		if np.Assignments[i].Device != plan.Assignments[i].Device {
			t.Fatal("boost moved workloads")
		}
	}
	// Second violation (already boosted) escalates to replan.
	rec2 := loop.Iterate()
	if len(rec2.Actions) != 1 || rec2.Actions[0].Kind != "replan" {
		t.Fatalf("second escalation = %+v", rec2.Actions)
	}
}

func TestSwarmRebalanceSpreadsHotspot(t *testing.T) {
	c := testContinuum(t)
	m := NewManager(c, BalancedGoal())
	// Pile pods onto one FMDC server.
	for i := 0; i < 10; i++ {
		name, err := c.Fog.CreatePod(cluster.PodSpec{
			App: "batch", Requests: cluster.Resources{CPU: 1, MemMB: 256}})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Fog.Bind(name, "fog-fmdc-0"); err != nil {
			t.Fatal(err)
		}
	}
	rule := swarm.Rule{OffloadThreshold: 0.3, Hysteresis: 0.05}
	res, err := m.SwarmRebalance(c.Fog, rule, 50)
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations == 0 {
		t.Fatal("no migrations from hotspot")
	}
	if res.MaxRelLoadAfter >= res.MaxRelLoadBefore {
		t.Fatalf("load not improved: %v -> %v", res.MaxRelLoadBefore, res.MaxRelLoadAfter)
	}
	// Cluster state stayed consistent: all pods running, no overcommit.
	for _, p := range c.Fog.Pods() {
		if p.Phase != cluster.PodRunning {
			t.Fatalf("pod %s lost during rebalance: %+v", p.Name, p)
		}
	}
	for _, n := range c.Fog.Nodes() {
		free, _ := c.Fog.FreeOn(n.Name)
		if free.CPU < -1e-9 {
			t.Fatalf("node %s overcommitted", n.Name)
		}
	}
	if len(c.Fog.PodsOnNode("fog-fmdc-0")) >= 10 {
		t.Fatal("hotspot untouched")
	}
}

func TestSwarmRebalanceValidation(t *testing.T) {
	c := testContinuum(t)
	m := NewManager(c, BalancedGoal())
	if _, err := m.SwarmRebalance(c.Fog, swarm.Rule{OffloadThreshold: 99}, 10); err == nil {
		t.Fatal("invalid rule accepted")
	}
	solo := cluster.New("solo")
	solo.AddNode(cluster.Node{Name: "only", Allocatable: cluster.Resources{CPU: 1, MemMB: 1}, Ready: true}) //nolint:errcheck
	if _, err := m.SwarmRebalance(solo, swarm.Rule{OffloadThreshold: 0.5}, 10); err == nil {
		t.Fatal("single-node rebalance accepted")
	}
}

func TestSwarmRebalanceRespectsSelectors(t *testing.T) {
	c := testContinuum(t)
	m := NewManager(c, BalancedGoal())
	pinned, _ := c.Fog.CreatePod(cluster.PodSpec{
		App: "pinned", Requests: cluster.Resources{CPU: 1, MemMB: 128},
		NodeSelector: map[string]string{"name": "fog-fmdc-0"}})
	c.Fog.Bind(pinned, "fog-fmdc-0") //nolint:errcheck
	for i := 0; i < 8; i++ {
		n, _ := c.Fog.CreatePod(cluster.PodSpec{App: "free", Requests: cluster.Resources{CPU: 1, MemMB: 128}})
		c.Fog.Bind(n, "fog-fmdc-0") //nolint:errcheck
	}
	m.SwarmRebalance(c.Fog, swarm.Rule{OffloadThreshold: 0.2, Hysteresis: 0.02}, 50) //nolint:errcheck
	p, _ := c.Fog.Pod(pinned)
	if p.Node != "fog-fmdc-0" {
		t.Fatalf("selector-pinned pod migrated to %s", p.Node)
	}
}

func TestOpenLoopLoadQueues(t *testing.T) {
	// Open-loop Poisson arrivals: at higher offered load the same
	// pipeline shows higher p95 (queueing), never lost requests.
	run := func(ratePerSec float64) float64 {
		c := testContinuum(t)
		o := NewOrchestrator(NewManager(c, LatencyGoal()))
		if _, err := o.Deploy(parseApp(t)); err != nil {
			t.Fatal(err)
		}
		const n = 30
		completed := 0
		_, err := workload.Schedule(c.Engine, sim.NewRNG(5), workload.Poisson{RatePerSec: ratePerSec}, n, func(int) {
			o.R.Submit("mobility", 4, func(lat sim.Time, e float64, err error) { //nolint:errcheck
				if err == nil {
					completed++
				}
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Engine.Run()
		if completed != n {
			t.Fatalf("completed %d of %d at rate %v", completed, n, ratePerSec)
		}
		k, _ := o.R.KPIs("mobility")
		return k.LatencyMs.P95
	}
	light := run(0.5) // one request every 2 s: no queueing
	heavy := run(50)  // 50/s: far beyond pipeline capacity
	if heavy <= light {
		t.Fatalf("no queueing under load: light p95=%.1fms heavy p95=%.1fms", light, heavy)
	}
}

func TestDataStoreAvoidsEdge(t *testing.T) {
	c := testContinuum(t)
	m := NewManager(c, BalancedGoal())
	st, err := tosca.Parse(`
tosca_definitions_version: tosca_2_0
metadata:
  template_name: stored
topology_template:
  node_templates:
    writer:
      type: myrtus.nodes.Container
      properties: {cpu: 0.5, memoryMB: 128, gops: 0.5}
    history:
      type: myrtus.nodes.DataStore
      properties: {cpu: 1, memoryMB: 1024, gops: 0.5}
      requirements:
        - source: writer
`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := m.Plan(st)
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := plan.Assignment("history")
	if ds.Layer == "edge" {
		t.Fatalf("DataStore placed at the edge (%s)", ds.Device)
	}
}

func TestContentionAvoidance(t *testing.T) {
	// A device with a deep backlog should lose new placements to idle
	// peers: the workload driver senses QueueDelay.
	c := testContinuum(t)
	m := NewManager(c, LatencyGoal())
	st, _ := tosca.Parse(`
tosca_definitions_version: tosca_2_0
metadata:
  template_name: single
topology_template:
  node_templates:
    w:
      type: myrtus.nodes.Container
      properties: {cpu: 0.5, memoryMB: 64, gops: 1}
`)
	first, err := m.Plan(st)
	if err != nil {
		t.Fatal(err)
	}
	busy := first.Assignment
	a, _ := busy("w")
	// Pile hours of work onto the chosen device without advancing time.
	d := c.Devices[a.Device]
	for i := 0; i < 5*d.Spec().Cores; i++ {
		d.Run(deviceWorkG(100), c.Engine.Now()) //nolint:errcheck
	}
	second, err := m.Plan(st)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := second.Assignment("w")
	if b.Device == a.Device {
		t.Fatalf("planner ignored a %v backlog on %s", d.QueueDelay(c.Engine.Now()), a.Device)
	}
}

func TestReplanRestoresOnInfeasibility(t *testing.T) {
	c := testContinuum(t)
	goal := LatencyGoal()
	m := NewManager(c, goal)
	o := NewOrchestrator(m)
	plan, err := o.Deploy(parseApp(t))
	if err != nil {
		t.Fatal(err)
	}
	// Make every future plan infeasible via the trust filter.
	m.Goal.TrustThreshold = 0.99
	for _, name := range c.DeviceNames() {
		c.Trust.Observe("probe", name, false)
	}
	np, err := m.Replan(plan)
	if err == nil || np != nil {
		t.Fatalf("replan should fail: %v %v", np, err)
	}
	// The old placement was restored: every assignment has a running pod
	// on its original device.
	for _, a := range plan.Assignments {
		pods := a.Cluster.PodsOnNode(a.Device)
		found := false
		for _, p := range pods {
			if p.Spec.Labels["myrtus/component"] == a.TemplateNode {
				found = true
			}
		}
		if !found {
			t.Fatalf("component %s not restored on %s", a.TemplateNode, a.Device)
		}
	}
}

func TestRuntimeAccessors(t *testing.T) {
	c := testContinuum(t)
	o := NewOrchestrator(NewManager(c, BalancedGoal()))
	if len(o.R.Apps()) != 0 {
		t.Fatal("apps before deploy")
	}
	plan, _ := o.Deploy(parseApp(t))
	apps := o.R.Apps()
	if len(apps) != 1 || apps[0] != "mobility" {
		t.Fatalf("apps = %v", apps)
	}
	got, ok := o.R.Plan("mobility")
	if !ok || got != plan {
		t.Fatal("Plan accessor")
	}
	if _, ok := o.R.Plan("ghost"); ok {
		t.Fatal("ghost plan")
	}
	if _, ok := o.R.Metrics("ghost"); ok {
		t.Fatal("ghost metrics")
	}
	if _, ok := o.R.KPIs("ghost"); ok {
		t.Fatal("ghost kpis")
	}
}

func TestRouteEpochInvalidation(t *testing.T) {
	c := testContinuum(t)
	m := NewManager(c, LatencyGoal())
	if lat := m.routeSeconds("edge-mc-0", "cloud-srv-0"); lat <= 0 {
		t.Fatalf("route = %v", lat)
	}
	// Sever the topology; the epoch bump invalidates the route table, so
	// the next read sees the edit immediately.
	c.Topo.RemoveLink("fog-fmdc-0", "cloud-srv-0")
	c.Topo.RemoveLink("cloud-srv-0", "fog-fmdc-0")
	if lat := m.routeSeconds("edge-mc-0", "cloud-srv-0"); lat >= 0 {
		t.Fatalf("route after cut = %v, want unreachable", lat)
	}
}

func TestRuntimeDiamondDAG(t *testing.T) {
	// source → (branchA, branchB) → join: the runtime must wait for BOTH
	// branches before firing the join, and the request completes once.
	c := testContinuum(t)
	o := NewOrchestrator(NewManager(c, LatencyGoal()))
	st, err := tosca.Parse(`
tosca_definitions_version: tosca_2_0
metadata:
  template_name: diamond
topology_template:
  node_templates:
    source:
      type: myrtus.nodes.Container
      properties: {cpu: 0.5, memoryMB: 64, gops: 0.5, outMB: 0.5}
    branchA:
      type: myrtus.nodes.Container
      properties: {cpu: 0.5, memoryMB: 64, gops: 2, outMB: 0.1}
      requirements:
        - source: source
    branchB:
      type: myrtus.nodes.Container
      properties: {cpu: 0.5, memoryMB: 64, gops: 8, outMB: 0.1}
      requirements:
        - source: source
    join:
      type: myrtus.nodes.Container
      properties: {cpu: 0.5, memoryMB: 64, gops: 1}
      requirements:
        - a: branchA
        - b: branchB
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Deploy(st); err != nil {
		t.Fatal(err)
	}
	completions := 0
	var lat sim.Time
	if err := o.R.Submit("diamond", 1, func(l sim.Time, e float64, err error) {
		if err != nil {
			t.Errorf("request failed: %v", err)
		}
		completions++
		lat = l
	}); err != nil {
		t.Fatal(err)
	}
	c.Engine.Run()
	if completions != 1 {
		t.Fatalf("done fired %d times", completions)
	}
	// The join waits for the slow branch: end-to-end must be at least the
	// slow branch's pure compute time (8 GOps on the fastest device,
	// 40 GOPS cloud → 200ms).
	if lat < 200*sim.Millisecond {
		t.Fatalf("latency %v shorter than the slow branch", lat)
	}
	k, _ := o.R.KPIs("diamond")
	if k.Requests != 1 || k.Failed != 0 {
		t.Fatalf("kpis = %+v", k)
	}
}

func TestRuntimeDiamondBranchFailure(t *testing.T) {
	// A failed transfer in one branch fails the request exactly once and
	// must not fire done twice.
	c := testContinuum(t)
	o := NewOrchestrator(NewManager(c, LatencyGoal()))
	st, _ := tosca.Parse(`
tosca_definitions_version: tosca_2_0
metadata:
  template_name: twobranch
topology_template:
  node_templates:
    source:
      type: myrtus.nodes.Container
      properties: {cpu: 0.5, memoryMB: 64, gops: 0.5, outMB: 0.5}
    sinkA:
      type: myrtus.nodes.Container
      properties: {cpu: 0.5, memoryMB: 64, gops: 20}
      requirements:
        - source: source
    sinkB:
      type: myrtus.nodes.Container
      properties: {cpu: 0.5, memoryMB: 64, gops: 20}
      requirements:
        - source: source
`)
	plan, err := o.Deploy(st)
	if err != nil {
		t.Fatal(err)
	}
	// Fail one sink's device after the source runs but before the sinks
	// complete: schedule the failure into the virtual future.
	a, _ := plan.Assignment("sinkA")
	src, _ := plan.Assignment("source")
	if a.Device == src.Device {
		t.Skip("co-located; failure timing not expressible")
	}
	calls := 0
	if err := o.R.Submit("twobranch", 1, func(l sim.Time, e float64, err error) {
		calls++
	}); err != nil {
		t.Fatal(err)
	}
	c.Engine.After(sim.Microsecond, func() { c.Devices[a.Device].Fail() })
	c.Engine.Run()
	if calls != 1 {
		t.Fatalf("done fired %d times, want exactly once", calls)
	}
	k, _ := o.R.KPIs("twobranch")
	if k.Requests+k.Failed != 1 {
		t.Fatalf("accounting = %+v", k)
	}
}
