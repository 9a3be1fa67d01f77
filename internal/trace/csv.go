package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV writes one or more series sharing the same timing grid as a CSV
// table with a leading "time" column. Series of unequal length are padded
// with empty cells.
func WriteCSV(w io.Writer, series ...*Series) error {
	if len(series) == 0 {
		return fmt.Errorf("trace: WriteCSV requires at least one series")
	}
	cw := csv.NewWriter(w)
	header := make([]string, 0, len(series)+1)
	header = append(header, "time")
	maxLen := 0
	for _, s := range series {
		header = append(header, s.Name)
		if s.Len() > maxLen {
			maxLen = s.Len()
		}
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(series)+1)
	for i := 0; i < maxLen; i++ {
		row[0] = strconv.FormatFloat(series[0].TimeAt(i), 'g', -1, 64)
		for j, s := range series {
			if i < s.Len() {
				row[j+1] = strconv.FormatFloat(s.Values[i], 'g', -1, 64)
			} else {
				row[j+1] = ""
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
