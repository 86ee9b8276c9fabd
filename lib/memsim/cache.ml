include Hierarchy.Cache
