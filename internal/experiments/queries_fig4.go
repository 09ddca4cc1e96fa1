// Package experiments defines the paper's evaluation workloads — the
// investigation query sets behind Figures 4 and 5, the conciseness
// comparison, and the storage/scheduling ablations — together with the
// harness that executes them on the AIQL engine and the baseline engines
// and renders figure-shaped output.
package experiments

import "github.com/aiql/aiql/internal/datagen"

// Query is one labeled experiment query.
type Query struct {
	Label string
	Text  string
	Kind  string // "multievent", "dependency", "anomaly"
}

// Fig4Queries returns the 19 investigation queries of Figure 4 (labels
// a1-1 … a5-5). Following the demo walkthrough, the a5 investigation
// opens with the anomaly query (a5-1); the other 18 are multievent or
// dependency queries. The queries reconstruct the investigation of the
// five-step APT of Figure 2 against the demo-apt scenario generated by
// package datagen.
func Fig4Queries() []Query {
	day := `(at "05/10/2018")`
	return []Query{
		// ---- a1: initial compromise (web/IRC server, agent 1)
		{Label: "a1-1", Kind: "multievent", Text: day + `
agentid = 1
proc p accept ip i[srcip = "203.0.113.129"] as evt
return distinct p, i.src_ip`},
		{Label: "a1-2", Kind: "multievent", Text: day + `
agentid = 1
proc p1["%unrealircd%"] start proc p2 as evt
return distinct p1, p2`},
		{Label: "a1-3", Kind: "multievent", Text: day + `
agentid = 1
proc p1["%unrealircd%"] start proc p2 as evt1
proc p2 connect ip i1 as evt2
with evt1 before evt2
return distinct p2, i1`},
		{Label: "a1-4", Kind: "multievent", Text: day + `
agentid = 1
proc p1["%unrealircd%"] accept ip i0[srcip = "203.0.113.129"] as evt1
proc p1 start proc p2 as evt2
proc p2 connect ip i1[dstip = "203.0.113.129"] as evt3
with evt1 before evt2, evt2 before evt3
return distinct p1, p2, i1`},

		// ---- a2: malware infection (web server → workstation 5)
		{Label: "a2-1", Kind: "multievent", Text: day + `
agentid = 1
proc p write file f["%info_stealer%"] as evt
return distinct p, f`},
		{Label: "a2-2", Kind: "dependency", Text: day + `
forward: proc p1["%cp%", agentid = 1] ->[write] file f1["%info_stealer%"]
<-[read] proc p2["%apache%"]
->[connect] proc p3[agentid = 5]
->[write] file f2["%info_stealer%"]
return f1, p1, p2, p3, f2`},
		{Label: "a2-3", Kind: "multievent", Text: day + `
agentid = 5
proc p1["%wget%"] write file f["%info_stealer%"] as evt1
proc p1 start proc p2 as evt2
with evt1 before evt2
return distinct p1, f, p2`},

		// ---- a3: privilege escalation (workstation 5)
		{Label: "a3-1", Kind: "multievent", Text: day + `
agentid = 5
proc p read file f["%lsass.exe"] as evt
return distinct p`},
		{Label: "a3-2", Kind: "multievent", Text: day + `
agentid = 5
proc p1["%info_stealer%"] start proc p2 as evt1
proc p2 start proc p3 as evt2
proc p3 read file f["%lsass.exe"] as evt3
with evt1 before evt2, evt2 before evt3
return distinct p1, p2, p3`},
		{Label: "a3-3", Kind: "multievent", Text: day + `
agentid = 5
proc p read file f1["%lsass.exe"] as evt1
proc p write file f2["%creds%"] as evt2
with evt1 before evt2
return distinct p, f2`},

		// ---- a4: credential dumping on the domain controller (agent 3)
		{Label: "a4-1", Kind: "multievent", Text: day + `
agentid = 3
proc p accept ip i[srcip = "10.0.0.5"] as evt
return distinct p, i.src_ip`},
		{Label: "a4-2", Kind: "multievent", Text: day + `
agentid = 3
proc p1["%services.exe"] start proc p2["%pwdump%"] as evt
return distinct p1, p2`},
		{Label: "a4-3", Kind: "multievent", Text: day + `
agentid = 3
proc p1["%services.exe"] start proc p2 as evt1
proc p2 read file f1["%ntds.dit"] as evt2
proc p2 write file f2 as evt3
with evt1 before evt2, evt2 before evt3
return distinct p2, f2`},
		{Label: "a4-4", Kind: "multievent", Text: day + `
agentid = 3
proc p1 accept ip i0[srcip = "10.0.0.5"] as evt1
proc p1 start proc p2 as evt2
proc p2 read file f1["%ntds.dit"] as evt3
proc p2 connect ip i1[dstip = "203.0.113.129"] as evt4
proc p2 write ip i1 as evt5
with evt1 before evt2, evt2 before evt3, evt3 before evt4, evt4 before evt5
return distinct p1, p2, f1, i1`},

		// ---- a5: data exfiltration from the database server (agent 2);
		// the investigation opens with the anomaly query (a5-1)
		{Label: "a5-1", Kind: "anomaly", Text: `
(from "05/10/2018 13:00:00" to "05/10/2018 14:00:00")
agentid = 2
window = 1 min, step = 1 min
proc p write ip i[dstip = "203.0.113.129"] as evt
return p, avg(evt.amount) as amt
group by p
having amt > 2 * (amt + amt[1] + amt[2]) / 3 and amt > 1000000`},
		{Label: "a5-2", Kind: "multievent", Text: day + `
agentid = 2
proc p["%powershell.exe"] read file f as evt
return distinct p, f`},
		{Label: "a5-3", Kind: "multievent", Text: day + `
agentid = 2
proc p write file f["%db.bak"] as evt
return distinct p, f`},
		{Label: "a5-4", Kind: "multievent", Text: day + `
agentid = 2
proc p["%powershell.exe"] connect ip i[dstip = "203.0.113.129"] as evt1
proc p write ip i as evt2
with evt1 before evt2
return distinct p, i`},
		{Label: "a5-5", Kind: "multievent", Text: day + `
agentid = 2
proc p1["%cmd.exe"] start proc p2["%osql.exe"] as evt1
proc p3["%sqlservr.exe"] write file f1["%backup1.dmp"] as evt2
proc p4["%sbblv.exe"] read file f1 as evt3
proc p4 read || write ip i1[dstip = "203.0.113.129"] as evt4
with evt1 before evt2, evt2 before evt3, evt3 before evt4
return distinct p1, p2, p3, f1, p4, i1`},
	}
}

// Fig4Dataset generates the demo-apt store configuration used by E1/E2.
func Fig4Dataset(events, hosts int, seed int64) datagen.Config {
	return datagen.Fig4Dataset(events, hosts, seed)
}
