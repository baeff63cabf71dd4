//! Tag power budget and energy-harvesting feasibility.
//!
//! Quantifies the paper's §7 argument: the dominant consumer in a
//! backscatter tag is clock generation, so a design that avoids channel
//! shifting (and with it the ≥ 20 MHz oscillator) lands in the
//! few-microwatt regime where RF/ambient harvesting sustains battery-free
//! operation.

use crate::oscillator::Oscillator;

/// Power budget of one tag design.
#[derive(Debug, Clone)]
pub struct PowerBudget {
    /// Clock source.
    pub oscillator: Oscillator,
    /// Comparator + envelope-detector bias (µW).
    pub frontend_uw: f64,
    /// Digital state machine (µW) — scales with clock rate.
    pub logic_uw_per_mhz: f64,
    /// RF switch driver (µW).
    pub switch_uw: f64,
}

impl PowerBudget {
    /// WiTAG's budget: 50 kHz crystal + comparator + tiny logic + switch.
    pub fn witag() -> Self {
        PowerBudget {
            oscillator: Oscillator::witag_crystal(),
            frontend_uw: 0.6,
            logic_uw_per_mhz: 8.0,
            switch_uw: 0.3,
        }
    }

    /// A channel-shifting design (HitchHike/FreeRider/MOXcatter class):
    /// 20 MHz ring oscillator + the same front end and switch.
    pub fn channel_shifting() -> Self {
        PowerBudget {
            oscillator: Oscillator::shifting_ring(),
            frontend_uw: 0.6,
            logic_uw_per_mhz: 8.0,
            switch_uw: 0.3,
        }
    }

    /// Total active power (µW).
    pub fn total_uw(&self) -> f64 {
        self.oscillator.power_uw()
            + self.frontend_uw
            + self.logic_uw_per_mhz * (self.oscillator.nominal_hz() / 1e6)
            + self.switch_uw
    }

    /// Whether ambient harvesting at `harvest_uw` sustains the tag with a
    /// 20 % margin.
    pub fn battery_free_feasible(&self, harvest_uw: f64) -> bool {
        harvest_uw >= self.total_uw() * 1.2
    }
}

/// A harvest-and-spend energy store: the battery-free tag's capacitor.
///
/// The tag trickle-charges from ambient RF between queries and spends a
/// burst of energy each time it answers one (clock + logic + switch for
/// the query's duration). When the capacitor runs dry the tag simply
/// stays in its reference state — queries go unanswered until it
/// recovers, a graceful duty cycle rather than a failure.
#[derive(Debug, Clone)]
pub struct EnergyBank {
    /// Storage capacity in microjoules.
    pub capacity_uj: f64,
    /// Current charge in microjoules.
    pub level_uj: f64,
    /// Harvest income in microwatts.
    pub harvest_uw: f64,
}

impl EnergyBank {
    /// A bank with the given capacity, starting full.
    pub fn new(capacity_uj: f64, harvest_uw: f64) -> Self {
        assert!(capacity_uj > 0.0);
        EnergyBank {
            capacity_uj,
            level_uj: capacity_uj,
            harvest_uw,
        }
    }

    /// Trickle-charge over `dt_s` seconds.
    pub fn charge(&mut self, dt_s: f64) {
        self.level_uj = (self.level_uj + self.harvest_uw * dt_s).min(self.capacity_uj);
    }

    /// Try to spend `power_uw` for `dt_s` seconds. Returns `false` (and
    /// spends nothing) if the bank cannot cover it.
    pub fn try_spend(&mut self, power_uw: f64, dt_s: f64) -> bool {
        let cost = power_uw * dt_s;
        if cost > self.level_uj {
            return false;
        }
        self.level_uj -= cost;
        true
    }

    /// Steady-state duty cycle achievable for a load of `power_uw`:
    /// min(1, harvest/load).
    pub fn sustainable_duty_cycle(&self, power_uw: f64) -> f64 {
        (self.harvest_uw / power_uw).min(1.0)
    }
}

/// RF energy harvested (µW) from an incident field of `incident_dbm`,
/// assuming a rectenna efficiency of 30 % above its −20 dBm turn-on.
pub fn rf_harvest_uw(incident_dbm: f64) -> f64 {
    if incident_dbm < -20.0 {
        return 0.0;
    }
    let incident_uw = 10f64.powf(incident_dbm / 10.0) * 1000.0;
    0.3 * incident_uw
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn witag_is_microwatt_class() {
        let p = PowerBudget::witag().total_uw();
        assert!(p < 10.0, "WiTAG budget {p} µW must be single-digit µW");
    }

    #[test]
    fn shifting_designs_cost_much_more() {
        let witag = PowerBudget::witag().total_uw();
        let shifting = PowerBudget::channel_shifting().total_uw();
        assert!(
            shifting > 20.0 * witag,
            "channel shifting {shifting} µW vs WiTAG {witag} µW"
        );
    }

    #[test]
    fn harvest_feasibility() {
        let witag = PowerBudget::witag();
        // −10 dBm incident (close to the client): 100 µW * 0.3 = 30 µW.
        assert!(witag.battery_free_feasible(rf_harvest_uw(-10.0)));
        // Below rectifier turn-on: nothing harvested.
        assert_eq!(rf_harvest_uw(-30.0), 0.0);
        assert!(!witag.battery_free_feasible(rf_harvest_uw(-30.0)));
    }

    #[test]
    fn energy_bank_charges_and_spends() {
        let mut bank = EnergyBank::new(10.0, 5.0); // 10 µJ, 5 µW income
        assert!(
            bank.try_spend(4.6, 1.0),
            "full bank covers one second of WiTAG"
        );
        assert!((bank.level_uj - 5.4).abs() < 1e-9);
        assert!(!bank.try_spend(100.0, 1.0), "cannot overdraw");
        assert!(
            (bank.level_uj - 5.4).abs() < 1e-9,
            "failed spend must not drain"
        );
        bank.charge(10.0);
        assert_eq!(
            bank.level_uj, bank.capacity_uj,
            "charge saturates at capacity"
        );
    }

    #[test]
    fn duty_cycle_math() {
        let bank = EnergyBank::new(10.0, 2.3);
        // 4.6 µW load on 2.3 µW income -> 50% duty cycle.
        assert!((bank.sustainable_duty_cycle(4.6) - 0.5).abs() < 1e-9);
        // Income above load -> always on.
        assert_eq!(bank.sustainable_duty_cycle(1.0), 1.0);
    }

    #[test]
    fn witag_sustains_continuous_operation_near_the_client() {
        // At −10 dBm incident the harvest (30 µW) covers the 4.6 µW load
        // continuously; a channel-shifting design cannot even duty-cycle
        // usefully.
        let witag = PowerBudget::witag().total_uw();
        let shifting = PowerBudget::channel_shifting().total_uw();
        let bank = EnergyBank::new(50.0, rf_harvest_uw(-10.0));
        assert_eq!(bank.sustainable_duty_cycle(witag), 1.0);
        assert!(bank.sustainable_duty_cycle(shifting) < 0.2);
    }

    #[test]
    fn shifting_design_struggles_even_close() {
        let shifting = PowerBudget::channel_shifting();
        // Even at −10 dBm incident, 30 µW < 1.2 × (~200 µW).
        assert!(!shifting.battery_free_feasible(rf_harvest_uw(-10.0)));
    }
}
