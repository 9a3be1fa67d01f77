package analysis

// SARIF 2.1.0 output for memdos-vet (-format sarif): the interchange
// format GitHub code scanning ingests, so findings surface as inline PR
// annotations. Only the subset of the schema the upload path needs is
// emitted. Active findings are error-level results; suppressed findings
// are carried with an inSource suppression so the dashboard shows the
// audit trail; stale //memdos:ignore entries are warning-level results
// under the staleignore rule.

// SARIFLog is the document root.
type SARIFLog struct {
	Version string     `json:"version"`
	Schema  string     `json:"$schema"`
	Runs    []SARIFRun `json:"runs"`
}

type SARIFRun struct {
	Tool    SARIFTool     `json:"tool"`
	Results []SARIFResult `json:"results"`
}

type SARIFTool struct {
	Driver SARIFDriver `json:"driver"`
}

type SARIFDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []SARIFRule `json:"rules"`
}

type SARIFRule struct {
	ID               string            `json:"id"`
	ShortDescription SARIFMessage      `json:"shortDescription"`
	Properties       map[string]string `json:"properties,omitempty"`
}

type SARIFResult struct {
	RuleID       string             `json:"ruleId"`
	Level        string             `json:"level"`
	Message      SARIFMessage       `json:"message"`
	Locations    []SARIFLocation    `json:"locations"`
	Suppressions []SARIFSuppression `json:"suppressions,omitempty"`
}

type SARIFMessage struct {
	Text string `json:"text"`
}

type SARIFLocation struct {
	PhysicalLocation SARIFPhysicalLocation `json:"physicalLocation"`
}

type SARIFPhysicalLocation struct {
	ArtifactLocation SARIFArtifactLocation `json:"artifactLocation"`
	Region           SARIFRegion           `json:"region"`
}

type SARIFArtifactLocation struct {
	URI string `json:"uri"`
}

type SARIFRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

type SARIFSuppression struct {
	Kind          string `json:"kind"`
	Justification string `json:"justification,omitempty"`
}

// NewSARIF converts one run's results into a SARIF log. File paths are
// emitted as given; the CLI relativizes them first so the URIs match the
// repository layout GitHub anchors annotations to.
func NewSARIF(checks []*Checker, res Result) SARIFLog {
	rules := make([]SARIFRule, 0, len(checks)+1)
	for _, c := range checks {
		rules = append(rules, SARIFRule{ID: c.Name, ShortDescription: SARIFMessage{Text: c.Doc}})
	}
	rules = append(rules, SARIFRule{
		ID:               StaleCheck,
		ShortDescription: SARIFMessage{Text: "flag //memdos:ignore suppressions that no longer suppress anything"},
	})

	results := make([]SARIFResult, 0, len(res.Findings)+len(res.Suppressed)+len(res.Stale))
	for _, d := range res.Findings {
		results = append(results, sarifResult(d, "error", nil))
	}
	for _, d := range res.Stale {
		results = append(results, sarifResult(d, "warning", nil))
	}
	for _, d := range res.Suppressed {
		results = append(results, sarifResult(d, "note", []SARIFSuppression{{
			Kind:          "inSource",
			Justification: "//memdos:ignore " + d.Check,
		}}))
	}

	return SARIFLog{
		Version: "2.1.0",
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Runs: []SARIFRun{{
			Tool: SARIFTool{Driver: SARIFDriver{
				Name:           "memdos-vet",
				InformationURI: "https://github.com/memdos/memdos",
				Rules:          rules,
			}},
			Results: results,
		}},
	}
}

func sarifResult(d Diagnostic, level string, sup []SARIFSuppression) SARIFResult {
	return SARIFResult{
		RuleID:  d.Check,
		Level:   level,
		Message: SARIFMessage{Text: d.Message},
		Locations: []SARIFLocation{{
			PhysicalLocation: SARIFPhysicalLocation{
				ArtifactLocation: SARIFArtifactLocation{URI: d.File},
				Region:           SARIFRegion{StartLine: d.Line, StartColumn: d.Col},
			},
		}},
		Suppressions: sup,
	}
}
