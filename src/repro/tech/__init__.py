"""Technology constants, physical parameters, design rules and area model."""
