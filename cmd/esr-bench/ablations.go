package main

import "github.com/epsilondb/epsilondb/internal/experiment"

// historyAblation sweeps the per-object write-history depth K.
func (r *runner) historyAblation() error {
	f, results, err := experiment.RunHistoryAblation(r.base, []int{1, 5, 20, 100}, r.progress)
	if err != nil {
		return err
	}
	if err := r.emit(f); err != nil {
		return err
	}
	return r.emitCells(f.ID, results)
}

// hierarchyAblation measures the bottom-up control cost by depth.
func (r *runner) hierarchyAblation() error {
	f, err := experiment.RunHierarchyOverhead([]int{1, 2, 3, 4, 6, 8}, 0)
	if err != nil {
		return err
	}
	return r.emit(f)
}
