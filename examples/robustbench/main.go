// Robustbench: adversarial evaluation of standard vs adversarial federated
// training using the public pkg/fedprophet API and this repository's attack
// suite.
//
//	go run ./examples/robustbench
//
// It trains two global models through fedprophet.Run — one with standard
// federated SGD (WithTrainPGD(0)), one with PGD adversarial training — then
// sweeps the attack budget ε over the trained models (Result.Model) and
// reports robust accuracy under FGSM, PGD and the AutoAttack-style ensemble,
// reproducing the classic robustness/utility trade-off curve that motivates
// the paper.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"fedprophet/internal/attack"
	"fedprophet/internal/data"
	"fedprophet/pkg/fedprophet"
)

func train(ctx context.Context, pgdSteps int) *fedprophet.Result {
	res, err := fedprophet.Run(ctx,
		fedprophet.WithMethod("jFAT"),
		fedprophet.WithWorkload("cifar"),
		fedprophet.WithScale("quick"),
		fedprophet.WithSeed(11),
		fedprophet.WithRounds(8),
		fedprophet.WithTrainPGD(pgdSteps),
		fedprophet.WithClientParallelism(4),
	)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	ctx := context.Background()

	fmt.Println("federated training: standard (ST) and adversarial (AT) global models...")
	st := train(ctx, 0)
	at := train(ctx, 3)

	// An independent synthetic test set for the sweep.
	_, testSet := data.Generate(data.CIFAR10SConfig(60, 20, 11))
	rng := rand.New(rand.NewSource(42))
	stModel, atModel := st.Model, at.Model

	fmt.Printf("\nclean accuracy:  ST %.1f%%  AT %.1f%%\n\n",
		attack.CleanAccuracy(stModel, testSet, 32)*100,
		attack.CleanAccuracy(atModel, testSet, 32)*100)

	fmt.Printf("%-8s %-10s %-10s %-10s %-10s\n", "eps", "ST FGSM", "ST PGD-10", "AT PGD-10", "AT AA")
	for _, eps := range []float64{2.0 / 255, 4.0 / 255, 8.0 / 255, 12.0 / 255} {
		fgsmCfg := attack.Config{Eps: eps, StepSize: eps, Steps: 1, Norm: attack.LInf, ClampMin: 0, ClampMax: 1}
		stFGSM := attack.AdvAccuracy(stModel, testSet, 32, fgsmCfg, rng)
		stPGD := attack.AdvAccuracy(stModel, testSet, 32, attack.PGDConfig(eps, 10), rng)
		atPGD := attack.AdvAccuracy(atModel, testSet, 32, attack.PGDConfig(eps, 10), rng)
		atAA := attack.AutoAttackAccuracy(atModel, testSet, 32, eps, 10, rng)
		fmt.Printf("%-8.4f %-10.1f %-10.1f %-10.1f %-10.1f\n",
			eps, stFGSM*100, stPGD*100, atPGD*100, atAA*100)
	}
	fmt.Println("\n(accuracies in %; AT holds up under attack while ST collapses)")
}
