package ledger

// RegisteredTools is the closed set of CLI commands that append run
// records: the ones that run simulations or workloads. odrl-obs (reads
// the ledger), odrl-vet (analyses source) and odrl-inspect (reads
// recorded artifacts) run neither and write no records; the contract test
// in this package walks cmd/ to prove the registry and the tree never
// drift apart.
func RegisteredTools() []string {
	return []string{
		"odrl",
		"odrl-bench",
		"odrl-run",
		"odrl-sweep",
		"odrl-trace",
		"odrl-verify",
	}
}

// IsRegisteredTool reports whether name is a ledger-writing CLI.
func IsRegisteredTool(name string) bool {
	for _, t := range RegisteredTools() {
		if t == name {
			return true
		}
	}
	return false
}
