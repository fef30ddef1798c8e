"""Emergency-aware access control: planning, enforcement, audit, simulation."""
