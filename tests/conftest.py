from hypothesis import Phase, settings

settings.register_profile("exact", max_examples=25, deadline=None)
# scripts/mutants.py: a failing example kills the mutant, so skip shrinking it
settings.register_profile("mutants", parent=settings.get_profile("exact"),
                          phases=[Phase.explicit, Phase.reuse, Phase.generate])
settings.load_profile("exact")
