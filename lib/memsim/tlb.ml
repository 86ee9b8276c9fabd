include Hierarchy.Tlb
