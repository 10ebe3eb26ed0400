package core

import (
	"encoding/json"
	"fmt"
	"os"

	"liquidarch/internal/config"
	"liquidarch/internal/fpga"
	"liquidarch/internal/measure"
	"liquidarch/internal/power"
	"liquidarch/internal/workload"
)

// On real hardware a model costs 53 builds at ~30 minutes each, so being
// able to persist and reload one matters to a practitioner. Models
// serialize to JSON with variables identified by name; loading re-binds
// them against the full paper space.

type entryJSON struct {
	Var      string  `json:"var"`
	Cycles   uint64  `json:"cycles"`
	LUTs     int     `json:"luts"`
	BRAM     int     `json:"bram"`
	Rho      float64 `json:"rho"`
	Lambda   int     `json:"lambda"`
	Beta     int     `json:"beta"`
	DynamicJ float64 `json:"dynamic_j"`
	StaticJ  float64 `json:"static_j"`
	Epsilon  float64 `json:"epsilon"`
}

type modelJSON struct {
	App          string      `json:"app"`
	Scale        string      `json:"scale"`
	BaseCycles   uint64      `json:"base_cycles"`
	BaseLUTs     int         `json:"base_luts"`
	BaseBRAM     int         `json:"base_bram"`
	BaseDynamicJ float64     `json:"base_dynamic_j"`
	BaseStaticJ  float64     `json:"base_static_j"`
	Entries      []entryJSON `json:"entries"`
}

// toJSON is the model's serialized form: variables identified by name.
func (m *Model) toJSON() modelJSON {
	out := modelJSON{
		App:          m.App,
		Scale:        m.Scale.String(),
		BaseCycles:   m.BaseCycles,
		BaseLUTs:     m.BaseResources.LUTs,
		BaseBRAM:     m.BaseResources.BRAM,
		BaseDynamicJ: m.BaseEnergy.DynamicJ,
		BaseStaticJ:  m.BaseEnergy.StaticJ,
	}
	for _, e := range m.Entries {
		out.Entries = append(out.Entries, entryJSON{
			Var:      e.Var.Name,
			Cycles:   e.Cycles,
			LUTs:     e.Resources.LUTs,
			BRAM:     e.Resources.BRAM,
			Rho:      e.Rho,
			Lambda:   e.Lambda,
			Beta:     e.Beta,
			DynamicJ: e.Energy.DynamicJ,
			StaticJ:  e.Energy.StaticJ,
			Epsilon:  e.Epsilon,
		})
	}
	return out
}

// fromJSON rebuilds the model from its serialized form, re-binding
// variables by name against the full paper space (restricted sub-space
// models load too, since their variables are a subset by construction).
func (m *Model) fromJSON(in *modelJSON) error {
	scale, ok := workload.ParseScale(in.Scale)
	if !ok {
		return fmt.Errorf("core: unknown scale %q in model", in.Scale)
	}
	full := config.FullSpace()
	names := make([]string, len(in.Entries))
	for i, e := range in.Entries {
		names[i] = e.Var
	}
	space, err := config.SpaceFromNames(names)
	if err != nil {
		return fmt.Errorf("core: rebinding model: %w", err)
	}

	m.App = in.App
	m.Scale = scale
	m.Space = space
	m.BaseCycles = in.BaseCycles
	m.BaseResources = fpga.Resources{LUTs: in.BaseLUTs, BRAM: in.BaseBRAM}
	m.BaseEnergy = power.Estimate{DynamicJ: in.BaseDynamicJ, StaticJ: in.BaseStaticJ}
	m.Entries = m.Entries[:0]
	for _, e := range in.Entries {
		v, ok := full.ByName(e.Var)
		if !ok {
			return fmt.Errorf("core: model variable %q unknown", e.Var)
		}
		m.Entries = append(m.Entries, Entry{
			Var:       v,
			Cycles:    e.Cycles,
			Resources: fpga.Resources{LUTs: e.LUTs, BRAM: e.BRAM},
			Rho:       e.Rho,
			Lambda:    e.Lambda,
			Beta:      e.Beta,
			Energy:    power.Estimate{DynamicJ: e.DynamicJ, StaticJ: e.StaticJ},
			Epsilon:   e.Epsilon,
		})
	}
	// The fields changed, so a formulation compiled from the old ones
	// no longer describes the model.
	m.compiled.Store(nil)
	return nil
}

// MarshalJSON serializes the model, indented, with variables identified
// by name.
func (m *Model) MarshalJSON() ([]byte, error) {
	return json.MarshalIndent(m.toJSON(), "", "  ")
}

// UnmarshalJSON rebuilds the model (see fromJSON).
func (m *Model) UnmarshalJSON(data []byte) error {
	var in modelJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("core: parsing model: %w", err)
	}
	return m.fromJSON(&in)
}

// SaveModel writes the model to a JSON file. The write goes through a
// temp file and a rename, so a crash or a concurrent LoadModel sees the
// old model or the new one, never a torn one.
func SaveModel(m *Model, path string) error {
	data, err := m.MarshalJSON()
	if err != nil {
		return err
	}
	if err := measure.WriteFileAtomic(path, data); err != nil {
		return fmt.Errorf("core: saving model: %w", err)
	}
	return nil
}

// LoadModel reads a model back from a JSON file.
func LoadModel(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: loading model: %w", err)
	}
	m := &Model{}
	if err := m.UnmarshalJSON(data); err != nil {
		return nil, err
	}
	return m, nil
}
